"""Unitarily correctable subsystems of a unital channel.

For unital noise the unitarily correctable subsystems are exactly the
noiseless subsystems of the composition of the channel with its dual.
The pipeline: read the block structure of the fixed-point algebra of
E^dag ∘ E, the commutant of the interaction algebra generated by the
products E_b^dag E_a, off two random elements of their span and fit
every product to it (m^2 products of d x d, taken one Kraus row at a
time; the composition is never formed).  Block k of the fitted product
(E_a Q)^dag (E_b Q) is the compressed pair (E_a W)^dag (E_b W) of the
candidate W = Q's block columns, split into F_ab (x) I_B and a remainder:
the testable condition of correctability for E itself.  So each
candidate's certificate is ``check_correctable``'s own verdict (the same
thresholds, PSD check and G_A identity) on the F_ab, remainder norms and
stack E_a W that the fit left behind, with no second pass over the pairs.
The rank diagnostic rank E(P_AB) is d_B times the live eigenvalues of F.
The recovery unitary U is then built and upgraded to a correction by
pairing the output C (x) B frame, the first d_A d_B standard basis
vectors (possible exactly because rank F_{C|A}(I_A) = rank I_A here),
back onto A (x) B: the correction is [W | the other columns of Q] U, Q
being unitary by the probe's certificate, and it is checked trace
preserving and verified on E's own E_a W, the stack the fit formed.  By
the theorem, that certificate is the noiseless property for E^dag ∘ E,
so it is not checked a second time.

The certificates each reported subsystem passed are those of
``check_correctable`` (the factorization and G_A identity residuals), the
orthogonality gate of the remixed Kraus ranges (step 2 of the recovery
construction, on which its closed-form polar factor rests) and
``verify_correction``, whose residual is the one reported: the
product-form bound on the correction identity when it is within
``strict_tol(tol)``, and the exact residual otherwise.  The recovery
is built without its own step 3 and step 5 certificates: the correction
identity R ∘ E ∘ P_AB = F_A (x) id_B is checked directly on E, so the
intermediate U ∘ E ∘ P_AB = F_{C|A} (x) id_B would only repeat it.  The
correction agrees with the one ``recovery_to_correction`` builds on E's
images of the code, and differs from it off them, where the completion
of W differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (AlgebraStructure, _draw_from_products, _fit_products, _noiseless_blocks,
                      _require_unital_tp)
from .channel import KrausChannel
from .correctability import _verdict
from .linalg import DEFAULT_TOL, acceptance_tol, strict_tol
from .recovery import _build_recovery, _checked_correction, _verify_on
from .subsystem import SubsystemDecomposition

__all__ = ["UccSubsystem", "InternalContradiction", "UccReport", "find_ucc"]


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


def find_ucc(ch: KrausChannel, seed: int = 0, tol: float = DEFAULT_TOL) -> UccReport:
    """Discover the unitarily correctable subsystems of a unital channel.

    Raises
    ------
    NotUnital
        If the channel is not unital (the characterization of unitary
        correctability via the dual composition needs unital noise).
    NotTracePreserving
        If the channel is not trace preserving, checked up front: then
        E^dag ∘ E is not unital, and its fixed points are not the
        commutant of the E_b^dag E_a.
    UnluckySeed, NotFinite
        As :func:`~subrec.algebra.enumerate_noiseless` raises them for
        E^dag ∘ E.
    """
    _require_unital_tp(ch, "UCC discovery")
    structure, candidates, fitted = _noiseless_blocks(ch, _draw_from_products, _fit_products,
                                                      seed, tol)

    report = UccReport(
        subsystems=[], classical_sectors=list(structure.classical_sectors),
        rank_diagnostics=[], structure=structure)

    # the candidates are the blocks with m_k > 1, each at its offset in Q
    offsets = [off for (m_k, _), off in zip(structure.blocks, structure.offsets) if m_k > 1]
    for dec, off, pair_data in zip(candidates, offsets, fitted):
        # the fit formed every compressed pair (E_a W)^dag (E_b W) and split it
        # into F_ab (x) I_B and a remainder: check_correctable's verdict on it
        cert, f_eigs = _verdict(ch, dec, *pair_data, tol)
        # (rank E(P_AB), rank P_AB): E(P_AB) = X X^dag for X = [E_a W]_a has the
        # nonzero spectrum of X^dag X = F (x) I_B + Δ, so its rank is d_B times
        # the live eigenvalues of F, at the recovery builder's cut-off; P_AB = W W^dag
        # has rank d_A d_B, W being a certified isometry
        live = int(np.count_nonzero(f_eigs > strict_tol(tol, f_eigs[-1])))
        report.rank_diagnostics.append((live * dec.d_b, dec.d_a * dec.d_b))

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

        # the builder's C (x) B frame is the first d_A d_B standard basis
        # vectors, and the probe certified Q unitary, so [W | the other columns
        # of Q] pairs it back onto W with no completion
        n = dec.d_a * dec.d_b
        u_w = np.hstack([dec.w, structure.q[:, :off], structure.q[:, off + n:]])
        correction = _checked_correction((u_w @ built.u_recovery)[None], tol)
        residual, f_a = _verify_on(cert.code_kraus, dec, correction, tol)
        if not residual <= acceptance_tol(tol):
            report.contradictions.append(InternalContradiction(
                dec, "verify", "correction residual above tolerance", residual))
            continue
        report.subsystems.append(UccSubsystem(dec, correction.kraus[0], residual, f_a))
    return report
