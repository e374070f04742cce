"""Subsystem decompositions H = (H_A (x) H_B) ⊕ K.

A candidate subsystem is specified by an explicit isometry
``W : H_A (x) H_B -> H`` whose column ``a * d_B + b`` is the image of
``|a> (x) |b>``.  The projector onto the code subspace is
``P_AB = W W^dag``; the summand K is range(I - P_AB).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotFinite
from .linalg import DEFAULT_TOL, dagger, frobenius, partial_trace_b, strict_tol

__all__ = ["SubsystemDecomposition", "FactorResult", "CodeMapCertificate",
           "certify_code_map", "remix_residual", "embed_product", "factor_on_range"]


class SubsystemDecomposition:
    """Embedding isometry W with the factor dimensions (d_A, d_B)."""

    def __init__(self, dim: int, d_a: int, d_b: int, w: np.ndarray,
                 tol: float = DEFAULT_TOL):
        w = np.asarray(w, dtype=complex)
        if d_a * d_b > dim:
            raise DimensionMismatch(f"d_A * d_B = {d_a * d_b} exceeds dim = {dim}")
        if w.shape != (dim, d_a * d_b):
            raise DimensionMismatch(
                f"W must be {dim} x {d_a * d_b}, got {w.shape}")
        if not np.isfinite(w).all():
            raise NotFinite("W has a NaN or infinite entry")
        defect = frobenius(dagger(w) @ w - np.eye(d_a * d_b))
        if not defect <= strict_tol(tol, np.sqrt(d_a * d_b)):
            raise DimensionMismatch(f"W is not an isometry (defect {defect:.3e})")
        self.dim = dim
        self.d_a = d_a
        self.d_b = d_b
        self.w = w
        self.tol = tol

    @property
    def p_ab(self) -> np.ndarray:
        """Projector onto the code subspace range(W)."""
        return self.w @ dagger(self.w)

    @classmethod
    def trivial(cls, d_a: int, d_b: int, tol: float = DEFAULT_TOL):
        """The factor-space decomposition W = I on H = H_A (x) H_B."""
        return cls(d_a * d_b, d_a, d_b, np.eye(d_a * d_b), tol=tol)

    @classmethod
    def from_subspace(cls, dim: int, vectors, tol: float = DEFAULT_TOL):
        """Code subspace (d_A = 1) spanned by the given orthonormal vectors."""
        w = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
        return cls(dim, 1, w.shape[1], w, tol=tol)

    def compress(self, m: np.ndarray) -> np.ndarray:
        """W^dag M W, the operator in code coordinates."""
        return dagger(self.w) @ np.asarray(m, dtype=complex) @ self.w

    def __repr__(self):
        return f"SubsystemDecomposition(dim={self.dim}, d_A={self.d_a}, d_B={self.d_b})"


@dataclass
class FactorResult:
    """Outcome of a tensor factorization attempt W^dag M W =? X (x) I_B.

    ``factor`` is the best Hilbert-Schmidt approximation
    ``Tr_B(W^dag M W) / d_B`` whether or not the factorization succeeds;
    ``residual`` is the Frobenius mismatch and doubles as the
    correctability diagnostic, ``ok`` is the verdict at tolerance.
    """

    factor: np.ndarray
    residual: float
    ok: bool


@dataclass
class CodeMapCertificate:
    """A map restricted to the code, read as F (x) id_B, with its certificate.

    ``superop`` is the d_C^2 x d_A^2 matrix of F (column-stacking
    convention), ``factors[i, j]`` the d_C x d_C operator F(|i><j|), and
    ``residual`` the worst Frobenius mismatch over the matrix units
    |i><j| (x) |k><l| of the code; it is NaN when an input is.
    """

    superop: np.ndarray
    factors: np.ndarray
    residual: float


def certify_code_map(ops, d_a: int, d_b: int, frame: np.ndarray | None = None,
                     superop: np.ndarray | None = None) -> CodeMapCertificate:
    """Certify X -> sum_a N_a X N_a^dag = V (F(.) (x) id_B) V^dag on the code.

    ``ops`` are the code-projected Kraus operators N_a (d_out x d_A d_B),
    e.g. E_a W; ``frame`` is the output isometry V (d_out x d_C d_B), the
    identity when omitted.  F is read from the I_B slice,
    F(X) = Tr_B(V^dag N(X (x) I_B) V) / d_B, one Gram product of the
    frame-compressed operators, unless ``superop`` supplies it.

    The residual is exact, without a Gram expansion.  For the matrix-unit
    row p = (i, k) and column q = (j, l) the mismatch
    N(|p><q|) - V_k F(|i><j|) V_l^dag is X_p diag(I_m, -F(|i><j|)) X_q^dag,
    with X_p = [N_1[:, p] .. N_m[:, p] | V_k].  One batched thin QR
    X_p = Q_p R_p, R_p of K = min(d_out, m + d_C) rows, gives its
    Frobenius norm as that of the K x K product
    R_p diag(I_m, -F(|i><j|)) R_q^dag (with F = I and d_A = 1, the
    product with F is a sign flip).  Rows p go in groups, which may span A
    indices and start or end inside one, each against every column at
    once.  The left factors R_p diag(I_m, -F(|i_p><j|)) of a group take one
    product per A index i in it, the last d_C columns of its rows against
    [F(|i><0|) .. F(|i><d_A-1|)]; then d_A products, one per column A index
    j, and each K x K block's squared norm sums its contiguous last axis
    (one product with a vector of ones) before its K rows.  Cost:
    n d_out (m + d_C)^2 for the QR, n K d_A d_C^2 for the left factors and
    n^2 K^2 (m + d_C) for the products (n = d_A d_B).  A group has
    max(1, max(K n d_out, 2^16) // (K^2 n)) rows, so no product block
    exceeds K n d_out entries or the floor of 2^16 (1 MB), and shapes
    under that floor run as one group; above it the peak is about
    2 (m + d_C) n d_out entries (the QR and its input), and nothing of
    size d_out^2 is formed.
    """
    ops = np.asarray(ops, dtype=complex)
    n = d_a * d_b
    if ops.ndim != 3 or ops.shape[2] != n:
        raise DimensionMismatch(f"operators must be m x d_out x {n}, got {ops.shape}")
    d_out = ops.shape[1]
    frame = np.eye(d_out, dtype=complex) if frame is None else np.asarray(frame)
    if frame.ndim != 2 or frame.shape[0] != d_out or frame.shape[1] % d_b or not frame.shape[1]:
        raise DimensionMismatch(
            f"frame must be {d_out} x (d_C * {d_b}) with d_C >= 1, got {frame.shape}")
    d_c = frame.shape[1] // d_b
    if superop is None:
        # V^dag N_a with rows (i, c) and columns (a, b, k): F(|i><j|)_cd is
        # the Gram entry of rows (i, c) and (j, d), over d_B
        coded = (dagger(frame) @ ops).reshape(-1, d_c, d_b, d_a, d_b)
        coded = coded.transpose(3, 1, 0, 2, 4).reshape(d_a * d_c, -1)
        gram = (coded @ dagger(coded)) / d_b
        factors = gram.reshape(d_a, d_c, d_a, d_c).transpose(0, 2, 1, 3)
        superop = factors.transpose(2, 3, 0, 1).reshape(d_c * d_c, d_a * d_a, order="F")
    else:
        superop = np.asarray(superop)
        if superop.shape != (d_c * d_c, d_a * d_a):
            raise DimensionMismatch(
                f"superop must be {d_c * d_c} x {d_a * d_a}, got {superop.shape}")
        factors = superop.reshape(d_c, d_c, d_a, d_a, order="F").transpose(2, 3, 0, 1)

    # X_p = [N_1[:, p] .. N_m[:, p] | V_k] = Q_p R_p for every row p = (i, k)
    m = ops.shape[0]
    frame_cb = frame.reshape(d_out, d_c, d_b)
    x = np.concatenate([ops.transpose(2, 1, 0),
                        np.tile(frame_cb.transpose(2, 0, 1), (d_a, 1, 1))], axis=2)
    r = np.linalg.qr(x, mode="r")
    del x  # the products need only R: free the QR input before them
    k_rows, cols = r.shape[1:]
    # r_dag[j] = [R_(j,0)^dag .. R_(j,d_B-1)^dag], the columns q = (j, l)
    r_dag = r.conj().reshape(d_a, d_b, k_rows, cols).transpose(0, 3, 1, 2).reshape(
        d_a, cols, d_b * k_rows)
    identity = d_a == 1 and np.array_equal(factors[0, 0], np.eye(d_c))
    if identity:
        # F = I: R_p diag(I_m, -I) is R_p with its last d_C columns negated
        r[..., m:] *= -1
    else:
        # neg_f[i] = -[F(|i><0|) .. F(|i><d_A-1|)], every column A index side by side
        neg_f = -factors.transpose(0, 2, 1, 3).reshape(d_a, d_c, d_a * d_c)
    group = _row_group(k_rows * k_rows * n, k_rows * n * d_out)
    worst = []
    for start in range(0, n, group):
        rows = r[start:start + group]
        stop = start + len(rows)
        if identity:
            left = rows[None]
        else:
            # left[j, p] = R_p diag(I_m, -F(|i_p><j|)), i_p the A index of row p:
            # one product per A index of the group, against every j at once
            left = np.empty((d_a, *rows.shape), dtype=complex)
            left[..., :m] = rows[..., :m]
            for i in range(start // d_b, (stop - 1) // d_b + 1):
                lo, hi = max(start, i * d_b) - start, min(stop, (i + 1) * d_b) - start
                prod = (rows[lo:hi, :, m:].reshape(-1, d_c) @ neg_f[i]).reshape(
                    hi - lo, k_rows, d_a, d_c)
                left[:, lo:hi, :, m:] = prod.transpose(2, 0, 1, 3)
        diff = (left.reshape(len(left), -1, cols) @ r_dag).view(float)
        diff = diff.reshape(d_a, len(rows), k_rows, d_b, 2 * k_rows)
        worst.append(np.max(_squared_block_norms(diff)))
    return CodeMapCertificate(superop, factors, float(np.sqrt(np.max(worst))))


def _squared_block_norms(diff: np.ndarray) -> np.ndarray:
    # diff[..., a, l, :] holds row a of the K x K block l as 2K real parts, so
    # its squared Frobenius norm sums the contiguous last axis, as one
    # matrix-vector product with ones, then the K axis a; squared in place
    width = diff.shape[-1]
    sums = np.square(diff, out=diff).reshape(-1, width) @ np.ones(width)
    return sums.reshape(diff.shape[:-1]).sum(axis=-2)


def _row_group(row_entries: int, cap: int) -> int:
    # rows per product block, each row making row_entries entries: a group
    # has at most cap entries or the floor of 2^16 (1 MB), and at least one
    # row, so shapes under the floor run as one group
    return max(1, max(cap, 1 << 16) // row_entries)


def remix_residual(cols, mix: np.ndarray) -> float:
    """Worst mismatch of a remixed column family, max_kl ||G(k) G(l)^dag - E(k) E(l)^dag||_F.

    ``cols`` holds the n blocks E(k) (n x d_out x c) and ``mix`` the c x c
    matrix q of the remix G(k) = E(k) q.  Then

        G(k) G(l)^dag - E(k) E(l)^dag = E(k) (q q^dag - I) E(l)^dag,

    and with the thin QR E(k) = Q_k R_k, R_k of K = min(d_out, c) rows,
    the orthonormal columns of Q_k and Q_l drop out of the Frobenius norm:
    it is that of the K x K product R_k (q q^dag - I) R_l^dag.  This is the
    R-factor form of ``certify_code_map`` with d_A = 1 and F = I, whose
    X_k = [G(k) | E(k)] is twice as wide: one batched QR of width c, not
    2c, and the products go in the same row groups, so no block exceeds
    max(K n d_out, 2^16) entries.  With q q^dag - I Hermitian, the (l, k)
    product is the adjoint of the (k, l) one, so each group of rows k
    meets only the columns l from its first row on.  The value is exact
    for the given q, rounding aside; G itself is never read.  The squared
    norms are summed as in ``certify_code_map``, over the contiguous last
    axis first.  Cost: n d_out c^2 for the QR, n K c^2 for the left
    factors and about n^2 K^2 c / 2 for the products.
    """
    cols = np.asarray(cols, dtype=complex)
    n, d_out, c = cols.shape
    mix = np.asarray(mix)
    if mix.shape != (c, c):
        raise DimensionMismatch(f"mix must be {c} x {c}, got {mix.shape}")
    r = np.linalg.qr(cols, mode="r")
    k_rows = r.shape[1]
    left = r @ (mix @ dagger(mix) - np.eye(c))
    # r_dag = [R_0^dag .. R_(n-1)^dag], the columns l
    r_dag = r.conj().transpose(2, 0, 1).reshape(c, n * k_rows)
    group = _row_group(k_rows * k_rows * n, k_rows * n * d_out)
    worst = []
    for start in range(0, n, group):
        # the (l, k) product is the adjoint of the (k, l) one: columns l >= start
        diff = (left[start:start + group].reshape(-1, c) @ r_dag[:, start * k_rows:]).view(float)
        diff = diff.reshape(-1, k_rows, n - start, 2 * k_rows)
        worst.append(np.max(_squared_block_norms(diff)))
    return float(np.sqrt(np.max(worst)))


def embed_product(dec: SubsystemDecomposition, sigma_a: np.ndarray,
                  sigma_b: np.ndarray) -> np.ndarray:
    """W (sigma_A (x) sigma_B) W^dag, supported on range(P_AB)."""
    sigma_a = np.asarray(sigma_a, dtype=complex)
    sigma_b = np.asarray(sigma_b, dtype=complex)
    if sigma_a.shape != (dec.d_a, dec.d_a) or sigma_b.shape != (dec.d_b, dec.d_b):
        raise DimensionMismatch(
            f"factors must be {dec.d_a} x {dec.d_a} and {dec.d_b} x {dec.d_b}")
    return dec.w @ np.kron(sigma_a, sigma_b) @ dagger(dec.w)


def factor_on_range(dec: SubsystemDecomposition, m: np.ndarray,
                    tol: float = DEFAULT_TOL) -> FactorResult:
    """Decide whether W^dag M W = X (x) I_B and extract X.

    The mismatch is reported relative to ``max(1, ||M||_F)``; a failed
    factorization is a value-carrying outcome, not an exception, because
    correctability checks consume the residual.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (dec.dim, dec.dim):
        raise DimensionMismatch(
            f"operator shape {m.shape} does not match dim {dec.dim}")
    compressed = dec.compress(m)
    x = partial_trace_b(compressed, dec.d_a, dec.d_b) / dec.d_b
    residual = frobenius(compressed - np.kron(x, np.eye(dec.d_b)))
    return FactorResult(x, residual, residual <= strict_tol(tol, frobenius(m)))
