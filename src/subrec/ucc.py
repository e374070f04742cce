"""Unitarily correctable subsystems of a unital channel.

For unital noise the unitarily correctable subsystems are exactly the
noiseless subsystems of the composition of the channel with its dual.
The pipeline: read the block structure of the fixed-point algebra of
Ψ = E^dag ∘ E, applied as X -> E^dag(E(X)) through the m Kraus operators
of E (Ψ is self-adjoint, so it is its own symmetrization, and the m^2
operators of the composition are never formed); check each candidate's
correctability for E itself, build the recovery unitary, and upgrade it
to a correction by pairing the output C (x) B frame back onto A (x) B
(possible exactly because rank F_{C|A}(I_A) = rank I_A here), verified
on E's own operators.  By the theorem, that certificate is the noiseless
property for E^dag ∘ E, so it is not checked a second time.

The certificates each reported subsystem passed are those of
``check_correctable`` (the factorization and G_A identity residuals), the
orthogonality gate of the remixed Kraus ranges (step 2 of the recovery
construction, on which its closed-form polar factor rests) and
``verify_correction``, whose residual is the one reported.  The recovery
is built without its own step 3 and step 5 certificates: the correction
identity R ∘ E ∘ P_AB = F_A (x) id_B is checked directly on E, so the
intermediate U ∘ E ∘ P_AB = F_{C|A} (x) id_B would only repeat it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (AlgebraStructure, _apply_layers, _dual_composition_layers,
                      _noiseless_blocks)
from .channel import KrausChannel, dual
from .correctability import check_correctable
from .errors import NotUnital, PreconditionViolated
from .linalg import DEFAULT_TOL, acceptance_tol, frobenius, numeric_rank, strict_tol
from .recovery import _build_recovery, _correction, verify_correction
from .subsystem import SubsystemDecomposition

__all__ = ["UccSubsystem", "InternalContradiction", "UccReport",
           "find_ucc", "rank_support_equivalence"]


@dataclass
class UccSubsystem:
    """One unitarily correctable subsystem with its correction unitary."""

    decomposition: SubsystemDecomposition
    u_correction: np.ndarray
    residual: float
    f_a_superop: np.ndarray


@dataclass
class InternalContradiction:
    """Diagnostic: a noiseless subsystem of E^dag ∘ E failed a later check.

    Signals a numerical-tolerance inconsistency (near-degenerate
    channels straddling the tolerance), recorded in the report instead
    of silently dropping the candidate.
    """

    decomposition: SubsystemDecomposition
    stage: str
    detail: str
    residual: float


@dataclass
class UccReport:
    """Everything find_ucc learned about a unital channel."""

    subsystems: list[UccSubsystem]
    classical_sectors: list[tuple[int, int]]
    rank_diagnostics: list[tuple[int, int]]
    contradictions: list[InternalContradiction] = field(default_factory=list)
    structure: AlgebraStructure | None = None
    seed: int = 0


def find_ucc(ch: KrausChannel, seed: int = 0, tol: float = DEFAULT_TOL) -> UccReport:
    """Discover the unitarily correctable subsystems of a unital channel.

    Raises
    ------
    NotUnital
        If the channel is not unital (the characterization of unitary
        correctability via the dual composition needs unital noise), or
        E^dag ∘ E is not, which for unital E means E is not trace
        preserving.
    UnluckySeed, NotFinite, NotTracePreserving
        As :func:`~subrec.algebra.enumerate_noiseless` raises them for
        E^dag ∘ E.
    """
    if not ch.is_unital:
        raise NotUnital("UCC discovery requires a unital channel")
    layers = _dual_composition_layers(ch)
    # E^dag∘E(I) = E^dag(I) = Σ E_a^dag E_a for unital E: judged as the
    # composed channel would judge its own unitality, at the channel's tol
    eye = np.eye(ch.dim)
    if not frobenius(_apply_layers(layers, eye) - eye) <= strict_tol(ch.tol, np.sqrt(ch.dim)):
        raise NotUnital("noiseless-subsystem enumeration requires E^dag∘E to be unital")
    structure, candidates = _noiseless_blocks(layers, ch.dim, seed, tol)

    report = UccReport(
        subsystems=[], classical_sectors=list(structure.classical_sectors),
        rank_diagnostics=[], structure=structure, seed=seed)

    for dec in candidates:
        p_ab = dec.p_ab
        report.rank_diagnostics.append(
            (numeric_rank(ch.apply(p_ab), tol), numeric_rank(p_ab, tol)))

        cert = check_correctable(ch, dec, tol=tol)
        if not cert.passed:
            report.contradictions.append(InternalContradiction(
                dec, "check_correctable",
                "noiseless subsystem of E^dag∘E is not correctable for E",
                cert.residual))
            continue
        built = _build_recovery(ch, dec, cert, tol)

        # unitary correctability needs rank F_{C|A}(I_A) = rank I_A
        rank_c = built.c_subsystem.d_a
        if rank_c != dec.d_a:
            report.contradictions.append(InternalContradiction(
                dec, "rank",
                f"dim C = {rank_c} differs from d_A = {dec.d_a}", float(rank_c)))
            continue

        correction = _correction(built.u_recovery, built.c_subsystem, dec, tol)
        u_corr = correction.kraus[0]
        residual, f_a = verify_correction(ch, dec, correction, tol=tol)
        if not residual <= acceptance_tol(tol):
            report.contradictions.append(InternalContradiction(
                dec, "verify", "correction residual above tolerance", residual))
            continue
        report.subsystems.append(UccSubsystem(dec, u_corr, residual, f_a))
    return report


def rank_support_equivalence(ch: KrausChannel, dec: SubsystemDecomposition,
                             tol: float = DEFAULT_TOL) -> tuple[bool, bool, bool]:
    """The three equivalent conditions for a correctable subsystem of unital noise.

    Returns ``(support_containment, rank_equality, fixed_point)`` where

    * support containment: supp(E^dag∘E(P_AB)) ⊆ supp(P_AB),
    * rank equality: rank(E(P_AB)) = rank(P_AB),
    * fixed point: E^dag∘E(P_AB) = P_AB.

    Raises
    ------
    NotUnital
        If the channel is not unital.
    PreconditionViolated
        If the decomposition fails the correctability check (the
        equivalence assumes a correctable subsystem).
    """
    if not ch.is_unital:
        raise NotUnital("the equivalence holds for unital channels")
    cert = check_correctable(ch, dec, tol=tol)
    if not cert.passed:
        raise PreconditionViolated(
            f"subsystem is not correctable (residual {cert.residual:.3e})")

    p = dec.p_ab
    x = dual(ch).apply(ch.apply(p))
    p_perp = np.eye(ch.dim) - p
    # numerically stable support-containment test for positive x
    leak = frobenius(p_perp @ x @ p_perp) + frobenius(p_perp @ x @ p)
    support_ok = leak <= strict_tol(tol, frobenius(x))

    rank_ok = numeric_rank(ch.apply(p), tol) == numeric_rank(p, tol)
    fixed_ok = frobenius(x - p) <= strict_tol(tol, frobenius(p))
    return support_ok, rank_ok, fixed_ok
