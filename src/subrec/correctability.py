"""Correctability and noiselessness tests for a candidate subsystem.

The testable condition: B is correctable for the channel E exactly when
every Kraus pair factorizes on the code subspace,

    P_AB E_a^dag E_b P_AB = F_ab (x) I_B,

equivalently when the compressed map P_AB ∘ E^dag ∘ E ∘ P_AB equals
G_A (x) id_B for a positive superoperator G_A on the A factor.  The
operator block matrix F = (F_ab) is positive semidefinite, with
F_ab = F_ba^dag, and feeds the recovery constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausChannel
from .errors import DimensionMismatch
from .linalg import DEFAULT_TOL, dagger, frobenius
from .subsystem import SubsystemDecomposition, certify_code_map, factor_on_range

__all__ = ["CorrectabilityCertificate", "NoiselessResult",
           "check_correctable", "check_noiseless"]


@dataclass
class CorrectabilityCertificate:
    """Result of the testable condition, with the F_ab block data.

    ``f_blocks[a, b]`` holds the d_A x d_A factor of
    P_AB E_a^dag E_b P_AB; ``residual`` is the worst tensor-factor
    mismatch over all pairs, kept raw so callers may apply stricter
    thresholds than the built-in pass/fail cut.  On success ``g_a`` is
    the d_A^2 x d_A^2 superoperator matrix of G_A (column-stacking
    convention) and ``g_a_residual`` certifies the identity G_A (x) id_B on a
    complete operator basis.
    """

    passed: bool
    f_blocks: np.ndarray
    residual: float
    g_a: np.ndarray | None = None
    g_a_residual: float = float("inf")
    f_min_eigenvalue: float = 0.0
    channel: KrausChannel | None = field(default=None, repr=False)
    decomposition: SubsystemDecomposition | None = field(default=None, repr=False)

    @property
    def f_matrix(self) -> np.ndarray:
        """The (m d_A) x (m d_A) block matrix F assembled from f_blocks."""
        m, _, d_a, _ = self.f_blocks.shape
        return self.f_blocks.transpose(0, 2, 1, 3).reshape(m * d_a, m * d_a)

    def matches(self, ch: KrausChannel, dec: SubsystemDecomposition,
                tol: float = DEFAULT_TOL) -> bool:
        """Whether this certificate was produced from the given pair."""
        if self.channel is None or self.decomposition is None:
            return False
        same_ch = self.channel is ch or (
            self.channel.dim == ch.dim and self.channel.m == ch.m and all(
                frobenius(x - y) <= tol * max(1.0, frobenius(x))
                for x, y in zip(self.channel.kraus, ch.kraus)))
        same_dec = self.decomposition is dec or (
            self.decomposition.dim == dec.dim
            and self.decomposition.d_a == dec.d_a
            and self.decomposition.d_b == dec.d_b
            and frobenius(self.decomposition.w - dec.w) <= tol * max(1.0, dec.dim))
        return same_ch and same_dec


@dataclass
class NoiselessResult:
    """Verdict of the noiseless-subsystem test E ∘ P_AB = G_A (x) id_B."""

    ok: bool
    residual: float
    g_a: np.ndarray | None = None


def check_correctable(ch: KrausChannel, dec: SubsystemDecomposition,
                      tol: float = DEFAULT_TOL) -> CorrectabilityCertificate:
    """Test the correctability condition for subsystem B under the channel.

    Runs the tensor factorization on every Kraus pair E_a^dag E_b,
    assembles the block matrix F and, when all pairs factor, builds the
    positive superoperator G_A with Kraus operators {F_ab} and verifies
    P_AB ∘ E^dag ∘ E ∘ P_AB = G_A (x) id_B on a complete operator basis.
    """
    if ch.dim != dec.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} != decomposition dim {dec.dim}")
    m = ch.m
    d_a = dec.d_a
    f_blocks = np.zeros((m, m, d_a, d_a), dtype=complex)
    residuals = np.zeros((m, m))
    all_ok = True
    for a in range(m):
        for b in range(m):
            res = factor_on_range(dec, dagger(ch.kraus[a]) @ ch.kraus[b], tol=tol)
            f_blocks[a, b] = res.factor
            residuals[a, b] = res.residual
            all_ok = all_ok and res.ok

    cert = CorrectabilityCertificate(
        passed=all_ok, f_blocks=f_blocks, residual=float(np.max(residuals)),
        channel=ch, decomposition=dec)

    # F must be PSD: recheck on the assembled block matrix.
    f = cert.f_matrix
    eigs = np.linalg.eigvalsh((f + dagger(f)) / 2.0) if np.isfinite(f).all() \
        else np.full(1, np.nan)
    cert.f_min_eigenvalue = float(eigs[0]) if eigs.size else 0.0
    scale = max(1.0, float(eigs[-1])) if eigs.size else 1.0
    if not cert.f_min_eigenvalue >= -tol * scale:
        cert.passed = False

    if not cert.passed:
        return cert

    # G_A from Kraus {F_ab}: these are exactly the Kraus operators of the
    # compressed map, so the verification below tests the tensor-factor
    # structure of P_AB ∘ E^dag ∘ E ∘ P_AB rather than G_A's arithmetic.
    g_a = sum(np.kron(f.conj(), f) for f in f_blocks.reshape(m * m, d_a, d_a))
    cert.g_a = g_a

    # the compressed map has Kraus operators W^dag E_a^dag E_b W
    kw = np.asarray(ch.kraus) @ dec.w
    n = kw.shape[2]
    pairs = (kw.conj().transpose(0, 2, 1)[:, None] @ kw[None, :]).reshape(m * m, n, n)
    worst = certify_code_map(pairs, d_a, dec.d_b, superop=g_a).residual
    cert.g_a_residual = worst
    if not worst <= tol * max(1.0, d_a * dec.d_b):
        cert.passed = False
    return cert


def check_noiseless(ch: KrausChannel, dec: SubsystemDecomposition,
                    tol: float = DEFAULT_TOL) -> NoiselessResult:
    """Test whether B is a noiseless subsystem: E ∘ P_AB = G_A (x) id_B.

    The candidate map G_A is extracted from the sigma_B = I_B/d_B slice,
    then the identity is verified for a complete operator basis
    {sigma_A^(i) (x) sigma_B^(j)} against that single consistent G_A.
    """
    if ch.dim != dec.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} != decomposition dim {dec.dim}")
    cm = certify_code_map(np.asarray(ch.kraus) @ dec.w, dec.d_a, dec.d_b, frame=dec.w)
    ok = cm.residual <= tol * max(1.0, dec.d_a * dec.d_b)
    return NoiselessResult(ok=ok, residual=cm.residual, g_a=cm.superop)
