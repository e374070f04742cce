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
from .linalg import DEFAULT_TOL, dagger, frobenius, strict_tol
from .subsystem import SubsystemDecomposition, _row_group, certify_code_map

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
    complete operator basis: on a passing certificate it is an upper bound
    on the worst mismatch over the matrix units, read off the pair
    residuals, and where that bound fails the threshold it is the exact
    mismatch (see :func:`check_correctable`).

    ``code_kraus`` is the stack of code-projected Kraus operators E_a W
    (m x d x d_A d_B) and ``pair_residuals`` the m x m matrix of
    r_ab = ||Δ_ab||_F, both as the pair check formed them; the recovery
    builder reuses the first, and bounds its step 2 check by the second,
    when the certificate was made from the very objects it is handed (see
    :mod:`subrec.recovery`).
    """

    passed: bool
    f_blocks: np.ndarray
    residual: float
    g_a: np.ndarray | None = None
    g_a_residual: float = float("inf")
    f_min_eigenvalue: float = 0.0
    channel: KrausChannel | None = field(default=None, repr=False)
    decomposition: SubsystemDecomposition | None = field(default=None, repr=False)
    code_kraus: np.ndarray | None = field(default=None, repr=False)
    pair_residuals: np.ndarray | None = field(default=None, repr=False)

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
                frobenius(x - y) <= strict_tol(tol, frobenius(x))
                for x, y in zip(self.channel.kraus, ch.kraus)))
        same_dec = self.decomposition is dec or (
            self.decomposition.dim == dec.dim
            and self.decomposition.d_a == dec.d_a
            and self.decomposition.d_b == dec.d_b
            and frobenius(self.decomposition.w - dec.w) <= strict_tol(tol, dec.dim))
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

    Runs the tensor factorization on every compressed Kraus pair
    C_ab = W^dag E_a^dag E_b W = F_ab (x) I_B + Δ_ab, assembles the block
    matrix F and, when all pairs factor (each ||Δ_ab||_F within
    ``strict_tol(tol, ||E_a^dag E_b||_F)``; the m Gram products at d that
    give those norms run only when some ||Δ_ab||_F exceeds tol, since no
    threshold is below tol) and F is positive semidefinite, builds the
    positive superoperator G_A with Kraus operators {F_ab} and verifies
    P_AB ∘ E^dag ∘ E ∘ P_AB = G_A (x) id_B on the matrix units of the code
    at ``strict_tol(tol, d_A d_B)``.

    That identity is first judged by the bound
    Σ_ab ||Δ_ab||_F (2 ||F_ab||_F + ||Δ_ab||_F) on its worst mismatch,
    from norms the pair check already has; only when the bound fails does
    the exact residual (``certify_code_map`` on the m^2 pairs) decide.
    The verdict is therefore the exact one, and ``g_a_residual`` is the
    bound when it passes, the exact residual otherwise.

    The pairs are formed in groups of Kraus rows a, as many as fit in
    max(m n^2, 2^16) entries (n = d_A d_B): all m rows in one product
    under that floor, one row at a time above it.
    """
    if ch.dim != dec.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} != decomposition dim {dec.dim}")
    m, d_a, d_b, n = ch.m, dec.d_a, dec.d_b, dec.d_a * dec.d_b
    kraus = np.asarray(ch.kraus)
    kw = kraus @ dec.w
    f_blocks = np.empty((m, m, d_a, d_a), dtype=complex)
    residuals = np.empty((m, m))
    diagonal = np.arange(d_b)
    # rows a of pairs in groups of at most max(m n^2, 2^16) entries, not m^2 n^2:
    # one group under that floor
    group = _row_group(m * n * n, m * n * n)
    for start in range(0, m, group):
        rows = slice(start, start + group)
        # compressed pairs (E_a W)^dag (E_b W) = W^dag E_a^dag E_b W, less F_ab (x) I_B;
        # the adjoints of this group's rows only, not a copy of the whole stack
        kw_dag = kw[rows].conj().transpose(0, 2, 1)
        delta = (kw_dag[:, None] @ kw).reshape(-1, m, d_a, d_b, d_a, d_b)
        f_blocks[rows] = np.einsum("abikjk->abij", delta) / d_b
        delta[:, :, :, diagonal, :, diagonal] -= f_blocks[rows]
        flat = delta.reshape(-1, n * n).view(float)
        residuals[rows] = np.sqrt(np.einsum("px,px->p", flat, flat)).reshape(-1, m)
    # a pair within tol passes at any ||E_a^dag E_b||_F, since the threshold
    # is tol max(1, ||E_a^dag E_b||_F): the norms run only when some pair (or
    # a NaN) is not within tol
    all_ok = bool(np.all(residuals <= tol))
    if not all_ok:
        all_ok = bool(np.all(residuals <= strict_tol(tol, _pair_norms(kraus))))

    cert = CorrectabilityCertificate(
        passed=all_ok, f_blocks=f_blocks, residual=float(np.max(residuals)),
        channel=ch, decomposition=dec, code_kraus=kw, pair_residuals=residuals)

    # F must be PSD: recheck on the assembled block matrix.
    f = cert.f_matrix
    eigs = np.linalg.eigvalsh((f + dagger(f)) / 2.0) if np.isfinite(f).all() \
        else np.full(1, np.nan)
    cert.f_min_eigenvalue = float(eigs[0]) if eigs.size else 0.0
    if not cert.f_min_eigenvalue >= -strict_tol(tol, eigs[-1] if eigs.size else 1.0):
        cert.passed = False

    if not cert.passed:
        return cert

    # G_A from Kraus {F_ab}: these are exactly the Kraus operators of the
    # compressed map, so the identity below tests the tensor-factor
    # structure of P_AB ∘ E^dag ∘ E ∘ P_AB rather than G_A's arithmetic.
    # sum_ab conj(F_ab) (x) F_ab in one contraction
    f_ab = f_blocks.reshape(m * m, d_a, d_a)
    g_a = np.einsum("xij,xkl->ikjl", f_ab.conj(), f_ab).reshape(d_a * d_a, d_a * d_a)
    cert.g_a = g_a

    # the compressed map has Kraus operators C_ab = W^dag E_a^dag E_b W =
    # F_ab (x) I_B + Δ_ab with ||Δ_ab||_F = residuals[a, b]; on a matrix
    # unit X it differs from G_A (x) id_B by Σ_ab Δ_ab X C_ab^dag +
    # (F_ab (x) I_B) X Δ_ab^dag, of norm at most Σ_ab ||Δ_ab||_F (||C_ab||_2 +
    # ||F_ab||_2) <= Σ_ab r_ab (2 f_ab + r_ab), f_ab = ||F_ab||_F.  The exact
    # residual runs only where that bound fails, so the verdict is the exact one
    threshold = strict_tol(tol, d_a * d_b)
    f_norms = np.linalg.norm(f_blocks, axis=(2, 3))
    bound = float(np.sum(residuals * (2.0 * f_norms + residuals)))
    if bound <= threshold:
        cert.g_a_residual = bound
        return cert
    pairs = (kw.conj().transpose(0, 2, 1)[:, None] @ kw[None]).reshape(m * m, n, n)
    worst = certify_code_map(pairs, d_a, d_b, superop=g_a).residual
    cert.g_a_residual = worst
    if not worst <= threshold:
        cert.passed = False
    return cert


def _pair_norms(kraus: np.ndarray) -> np.ndarray:
    # ||E_a^dag E_b||_F^2 = <E_a E_a^dag, E_b E_b^dag>: m Gram products at d, stacked
    m = len(kraus)
    grams = (kraus @ kraus.conj().transpose(0, 2, 1)).reshape(m, -1)
    return np.sqrt(np.abs(grams.conj() @ grams.T))


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
    ok = cm.residual <= strict_tol(tol, dec.d_a * dec.d_b)
    return NoiselessResult(ok=ok, residual=cm.residual, g_a=cm.superop)
