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
from .subsystem import SubsystemDecomposition, _certify_on_code, _row_group, certify_code_map

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
    """Verdict of the noiseless-subsystem test E ∘ P_AB = G_A (x) id_B.

    ``residual`` is the product-form upper bound on the worst mismatch over
    the matrix units when that bound is within ``strict_tol(tol)``, with
    ``g_a`` the closed form sum_a conj(k_a) (x) k_a, and otherwise the exact
    mismatch, with the G_A extracted from the I_B slice (see
    :func:`check_noiseless`).  ``ok`` is the verdict at
    ``strict_tol(tol, d_A d_B)``, the exact one either way.
    """

    ok: bool
    residual: float
    g_a: np.ndarray | None = None


def check_correctable(ch: KrausChannel, dec: SubsystemDecomposition,
                      tol: float = DEFAULT_TOL) -> CorrectabilityCertificate:
    """Test the correctability condition for subsystem B under the channel.

    Runs the tensor factorization on every compressed Kraus pair
    C_ab = W^dag E_a^dag E_b W = F_ab (x) I_B + Δ_ab, assembles the block
    matrix F and, when all pairs factor (each ||Δ_ab||_F within
    ``strict_tol(tol, ||E_a^dag E_b||_F)``) and F is positive semidefinite,
    builds the positive superoperator G_A with Kraus operators {F_ab} and
    verifies P_AB ∘ E^dag ∘ E ∘ P_AB = G_A (x) id_B on the matrix units of
    the code at ``strict_tol(tol, d_A d_B)``.

    The m Gram products at d that give the pair norms run only when they
    can decide: a pair within tol passes at any norm, as no threshold is
    below tol, and one above ``strict_tol(tol, ||E_a||_F ||E_b||_F)`` fails
    at any, as ||E_a^dag E_b||_F <= ||E_a||_F ||E_b||_F; so they run only
    when some ||Δ_ab||_F exceeds tol and none exceeds that bound (a NaN
    exceeds neither).  ``passed``, ``residual`` and every other field are
    those of the exact norms.

    That identity is first judged by the bound
    Σ_ab ||Δ_ab||_F (2 ||F_ab||_F + ||Δ_ab||_F) on its worst mismatch,
    from norms the pair check already has; only when the bound fails does
    the exact residual (``certify_code_map`` on the m^2 pairs) decide.
    The verdict is therefore the exact one, and ``g_a_residual`` is the
    bound when it passes, the exact residual otherwise.

    Since C_ba = C_ab^dag, only the m (m + 1) / 2 pairs a <= b are formed,
    and F_ba = F_ab^dag, r_ba = r_ab are filled in, as the fit of
    :func:`~subrec.ucc.find_ucc` does, so F is Hermitian off its diagonal
    blocks bit for bit.  The pairs go in chunks of at most max(m n^2, 2^16)
    entries (n = d_A d_B), each pair counting its product and its two
    gathered operands: one batched product under that floor.
    """
    if ch.dim != dec.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} != decomposition dim {dec.dim}")
    m, d_a, d_b, n = ch.m, dec.d_a, dec.d_b, dec.d_a * dec.d_b
    kraus = np.asarray(ch.kraus)
    kw = kraus @ dec.w
    f_blocks = np.empty((m, m, d_a, d_a), dtype=complex)
    residuals = np.empty((m, m))
    diagonal = np.arange(d_b)
    # the pairs a <= b (docstring), each counting its n^2 product and its two
    # gathered n x d operands against the max(m n^2, 2^16) entries of a chunk
    index = np.arange(m)
    first, second = np.nonzero(index[:, None] <= index)
    chunk = _row_group(n * (n + 2 * dec.dim), m * n * n)
    for start in range(0, first.size, chunk):
        a, b = first[start:start + chunk], second[start:start + chunk]
        kw_dag = kw[a]
        np.conjugate(kw_dag, out=kw_dag)
        delta = (kw_dag.transpose(0, 2, 1) @ kw[b]).reshape(-1, d_a, d_b, d_a, d_b)
        f_ab = np.einsum("pikjk->pij", delta) / d_b
        delta[:, :, diagonal, :, diagonal] -= f_ab
        # the adjoints first, so each diagonal block F_aa keeps its own bits
        f_blocks[b, a] = f_ab.conj().transpose(0, 2, 1)
        f_blocks[a, b] = f_ab
        flat = delta.reshape(len(a), -1).view(float)
        residuals[a, b] = residuals[b, a] = np.sqrt(np.einsum("px,px->p", flat, flat))
    return _verdict(ch, dec, kw, f_blocks, residuals, tol)[0]


def _verdict(ch: KrausChannel, dec: SubsystemDecomposition, kw: np.ndarray,
             f_blocks: np.ndarray, residuals: np.ndarray, tol: float):
    """The verdict of :func:`check_correctable` on its pair data: the stack
    E_a W, the m x m x d_A x d_A array of the F_ab and the m x m remainder
    norms r_ab = ||Δ_ab||_F of the compressed pairs, wherever they were
    formed.  The pair norms ||E_a^dag E_b||_F are formed only where the
    norm products ||E_a||_F ||E_b||_F cannot decide the pairs (see
    :func:`check_correctable`).  Returns the certificate and F's
    eigenvalues, ascending (one NaN for a non-finite F)."""
    m, d_a, d_b, n = ch.m, dec.d_a, dec.d_b, dec.d_a * dec.d_b
    # the threshold tol max(1, ||E_a^dag E_b||_F) lies between tol and
    # tol max(1, ||E_a||_F ||E_b||_F): the exact norms run only for residuals
    # between the two, or a NaN (docstring)
    kraus = np.asarray(ch.kraus)
    all_ok = bool(np.all(residuals <= tol))
    if not all_ok and not np.any(residuals > strict_tol(tol, _norm_products(kraus))):
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
        return cert, eigs

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
        return cert, eigs
    pairs = (kw.conj().transpose(0, 2, 1)[:, None] @ kw[None]).reshape(m * m, n, n)
    worst = certify_code_map(pairs, d_a, d_b, superop=g_a).residual
    cert.g_a_residual = worst
    if not worst <= threshold:
        cert.passed = False
    return cert, eigs


def _norm_products(kraus: np.ndarray) -> np.ndarray:
    # ||E_a||_F ||E_b||_F >= ||E_a^dag E_b||_F, raised by a relative
    # 4 d (d + 2) eps, above the rounding of the d- and d^2-term sums of
    # _pair_norms, so it bounds the computed norms too; NaN for a NaN entry
    d = kraus.shape[1]
    norms = np.array([frobenius(k) for k in kraus])
    return np.outer(norms, norms) * (1.0 + 4 * d * (d + 2) * float(np.finfo(float).eps))


def _pair_norms(kraus: np.ndarray) -> np.ndarray:
    # ||E_a^dag E_b||_F^2 = <E_a E_a^dag, E_b E_b^dag>: m Gram products at d, stacked
    m = len(kraus)
    grams = (kraus @ kraus.conj().transpose(0, 2, 1)).reshape(m, -1)
    return np.sqrt(np.abs(grams.conj() @ grams.T))


def check_noiseless(ch: KrausChannel, dec: SubsystemDecomposition,
                    tol: float = DEFAULT_TOL) -> NoiselessResult:
    """Test whether B is a noiseless subsystem: E ∘ P_AB = G_A (x) id_B.

    The identity holds exactly when every E_a W = W (k_a (x) I_B), with
    k_a = (1/d_B) sum_l W_l^dag E_a W_l (W_l the columns of B index l).  The
    remainders E_a W - W (k_a (x) I_B) bound the exact residual, at a cost
    of O(m d n d_A), and that bound is reported, with the closed-form G_A,
    when it is within ``strict_tol(tol)``.  Otherwise, and for a NaN bound,
    the candidate map G_A is extracted from the sigma_B = I_B/d_B slice and
    the identity is verified exactly for a complete operator basis
    {sigma_A^(i) (x) sigma_B^(j)} against that single consistent G_A
    (``certify_code_map``), and that residual is reported.
    """
    if ch.dim != dec.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} != decomposition dim {dec.dim}")
    residual, g_a = _certify_on_code(np.asarray(ch.kraus) @ dec.w, dec.d_a, dec, tol)
    return NoiselessResult(ok=residual <= strict_tol(tol, dec.d_a * dec.d_b),
                           residual=residual, g_a=g_a)
