"""Dense complex linear algebra primitives and the tolerance policy.

Conventions fixed here and used everywhere:

* composite index on a tensor product H_A (x) H_B is ``a * d_B + b``
  (A-major, the order produced by ``numpy.kron``);
* ``vec`` is column-stacking, so ``vec(A X B) = (B^T kron A) vec(X)``;
* ``tol`` (default ``DEFAULT_TOL = 1e-9``, relative, Frobenius) is the
  only knob: every threshold in the package is one of these functions:

===========================  ===============================  =================  =============
threshold                    formula                          at DEFAULT_TOL     call sites
===========================  ===============================  =================  =============
strict_tol(tol, s)           tol max(1, s)                    1e-9 max(1, s)     [1]
acceptance_tol(tol, s)       max(100 tol, 1e-7) max(1, s)     1e-7 max(1, s)     [2]
cluster_gap(tol)             min(1e-6, max(1e3 tol, 1e-9))    1e-6               [3]
gram_schmidt_cutoff(tol, δ)  max(gap, sqrt δ)                 1e-6 (δ <= 1e-12)  [4]
eigen-degeneracy             strict_tol(tol / 10, |w|_inf)    1e-10 max(1, |w|)  hermitian_eig
numeric_rank(m, tol)         tol s_max                        1e-9 s_max         [5]
===========================  ===============================  =================  =============

[1] inputs (Hermitian, projector, polar factor, TP, unital, W) and
certificates (factorization, F >= 0, G_A identity, noiseless, spans,
``channels_equal``); [2] assembled results: the G_a orthogonality gate
(s = lambda_max of F, judged on its bound from the pair residuals, and on
the exact Gram blocks where that bound exceeds it), the unitarity of
every completion (s = d), algebra closure and the pattern fit of every
check element or generator, the correction's TP defect (s = √d), the UCC
correction;
[3] ``algebra``: eigenvalue clusters, links gap ||g||, intertwiner defect
gap max(1, c); [4] Gram-Schmidt on a projector or isometry of defect δ;
[5] ``find_ucc``'s rank diagnostics and ``rank_support_equivalence``:
relative to the largest singular value s_max, with no floor at 1, so a
rank does not change with the scale of E(P_AB).
Why these values: README, "Tolerance".
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    FactorMismatch,
    LengthMismatch,
    NotHermitian,
    NotPartialIsometry,
)

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "dagger",
    "frobenius",
    "vec",
    "unvec",
    "operator_basis",
    "hermitian_eig",
    "polar_isometry_on_support",
    "complete_to_unitary",
    "partial_trace_b",
    "majorizes",
    "numeric_rank",
    "orthonormal_complement",
]


def strict_tol(tol: float, scale=1.0):
    """Threshold for inputs and certificates: ``tol max(1, scale)``.

    A NaN scale gives NaN and +inf gives inf, as ``np.maximum`` does.  A
    Python int or float (``np.float64`` included) is taken in plain Python
    arithmetic, the same value without ufunc dispatch; any other scale, an
    array among them, goes through ``np.maximum``.
    """
    if isinstance(scale, (int, float)):
        # a NaN fails scale <= 1 and is kept
        return float(tol * (1.0 if scale <= 1.0 else scale))
    cut = tol * np.maximum(1.0, scale)
    return float(cut) if np.ndim(cut) == 0 else cut


def acceptance_tol(tol: float, scale=1.0):
    """Threshold for assembled results: ``max(100 tol, 1e-7) max(1, scale)``."""
    return strict_tol(max(100 * tol, 1e-7), scale)


def cluster_gap(tol: float) -> float:
    """Relative gap between eigenvalue clusters: ``1e3 tol`` clipped to [1e-9, 1e-6]."""
    return min(1e-6, max(1e3 * tol, 1e-9))


def gram_schmidt_cutoff(tol: float, defect: float) -> float:
    """Smallest norm Gram-Schmidt keeps on input of defect δ: ``max(gap, sqrt δ)``."""
    return max(cluster_gap(tol), float(np.sqrt(defect)))


def eigenvalue_clusters(w: np.ndarray, gap: float) -> np.ndarray:
    """Start indices of the runs of sorted eigenvalues whose neighbours
    differ by at most ``strict_tol(gap, ||w||_inf)``."""
    cut = strict_tol(gap, np.abs(w).max(initial=0.0))
    return np.concatenate([[0], np.flatnonzero(np.abs(np.diff(w)) > cut) + 1])


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm, the value of ``np.linalg.norm`` to a few ulp.

    A complex array takes one BLAS pass, sqrt(Re <m, m>) through
    ``np.vdot``, where ``np.linalg.norm`` makes two strided dots over the
    real and imaginary parts.  ``np.vdot`` turns an infinite entry into
    NaN, so a NaN there is handed to ``np.linalg.norm``: a NaN entry gives
    NaN and an infinite one (without NaN) inf, as before.
    """
    m = np.asarray(m)
    if m.dtype.kind == "c":
        square = np.vdot(m, m).real
        if not math.isnan(square):
            return math.sqrt(square)
    return float(np.linalg.norm(m))


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(x).flatten(order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d x d matrix."""
    return np.asarray(v).reshape(d, d, order="F")


def operator_basis(d: int) -> list[np.ndarray]:
    """Matrix units E_ij, a complete operator basis of the d x d matrices."""
    out = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            out.append(e)
    return out


def _as_square(m, name="matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def hermitian_eig(m: np.ndarray, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues nonincreasing.

    Parameters
    ----------
    m : ndarray
        Hermitian matrix (within ``strict_tol(tol, ||m||_F)``).
    tol : float
        Relative tolerance of the symmetry check; clusters merge below tol / 10.

    Returns
    -------
    spectrum : ndarray
        Real eigenvalues sorted in nonincreasing order.
    q : ndarray
        Unitary whose columns are the matching eigenvectors, so that
        ``m = q @ diag(spectrum) @ q^dag``.

    Raises
    ------
    NotHermitian
        If the symmetry residual exceeds tolerance.
    """
    w, q = _sorted_eigh(m, tol)
    return w, _canonicalize_eigenvectors(w, q, tol)


def _sorted_eigh(m: np.ndarray, tol: float):
    # hermitian_eig before canonicalization: the symmetry check, then the
    # solver's eigenvectors in stable descending order of the eigenvalues
    m = _as_square(m)
    defect = frobenius(m - dagger(m))
    if not defect <= strict_tol(tol, frobenius(m)):
        raise NotHermitian(f"symmetry residual {defect:.3e} exceeds tolerance")
    w, q = np.linalg.eigh((m + dagger(m)) / 2.0)
    # stable descending order: exact ties keep the solver's ordering, so
    # already-diagonal inputs come back with untouched eigenvectors
    order = np.argsort(-w, kind="stable")
    return w[order], q[:, order]


def _canonicalize_eigenvectors(w: np.ndarray, q: np.ndarray, tol: float,
                               leading: int | None = None) -> np.ndarray:
    """Deterministic eigenbasis: canonical vectors inside degenerate clusters.

    Within each cluster of eigenvalues closer than ``tol / 10`` (relative)
    the solver's basis is arbitrary; replace it by the index-ordered
    Gram-Schmidt of the standard basis projected onto the eigenspace.
    Every column's phase is then fixed so its largest entry is real
    positive.  Reconstruction error stays below the cluster width.  With
    ``leading`` given, only the clusters that meet the first ``leading``
    columns are made canonical, bit for bit as in the full pass; the
    later ones keep the solver's vectors, phase-fixed.
    """
    d = w.size
    if not d:
        return q  # nothing to rephase; argmax has no empty reduction
    q = q.copy()
    bounds = np.append(eigenvalue_clusters(w, tol / 10), d)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if leading is not None and start >= leading:
            break
        if stop - start > 1:
            block = q[:, start:stop]
            defect = frobenius(dagger(block) @ block - np.eye(stop - start))
            fresh = _index_ordered_basis(block @ dagger(block), stop - start,
                                         gram_schmidt_cutoff(tol, defect))
            if fresh.shape[1] == stop - start:
                q[:, start:stop] = fresh
    pivots = q[np.argmax(np.abs(q), axis=0), np.arange(d)]
    return q / (pivots / np.abs(pivots))


def polar_isometry_on_support(g: np.ndarray, s: np.ndarray,
                              tol: float = DEFAULT_TOL) -> np.ndarray:
    """Partial isometry V of the polar factorization ``g = V s``.

    ``s`` must be the positive factor: positive semidefinite with
    ``g^dag g = s^2``.  The result is ``V = g s^+`` (pseudo-inverse taken
    on the support of ``s``), so ``V^dag V`` is the projector onto
    supp(s) and ``g = V s`` within tolerance.

    Raises
    ------
    FactorMismatch
        If ``||g^dag g - s^2||_F`` exceeds ``strict_tol(tol, ||s^2||_F)``.
    """
    g = _as_square(g, "g")
    s = _as_square(s, "s")
    if g.shape != s.shape:
        raise DimensionMismatch("g and s must have equal shapes")
    s2 = s @ s
    defect = frobenius(dagger(g) @ g - s2)
    if not defect <= strict_tol(tol, frobenius(s2)):
        raise FactorMismatch(f"||g^dag g - s^2|| = {defect:.3e} exceeds tolerance")
    w, q = hermitian_eig(s, tol=tol)
    cutoff = strict_tol(tol, w[0] if w.size else 0.0)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return g @ (q * inv) @ dagger(q)


def _index_ordered_basis(comp: np.ndarray, target: int, cutoff: float) -> np.ndarray:
    """Index-ordered Gram-Schmidt over the columns of ``comp``: each column,
    projected off the vectors kept so far, is kept when its residual norm
    exceeds ``cutoff``, until ``target`` are kept; returns them as columns.

    Blocked form of that column loop.  A column of norm within the cut-off
    is dropped up front: projection only shrinks it.  The other columns go
    in blocks of at most the number still wanted.  A block is projected off
    the basis twice (re-orthogonalized block Gram-Schmidt; the first block
    meets an empty basis and skips both), then taken by
    :func:`_block_gram_schmidt`.  A block it takes only up to its first
    skip is followed by one at most twice as wide as the part kept, so
    dense skips it cannot take at once cost about what one column at a
    time did.
    """
    d = comp.shape[0]
    cand = np.flatnonzero(np.linalg.norm(comp, axis=0) > cutoff)
    basis = np.zeros((d, target), dtype=complex, order="F")
    k = pos = 0
    width = target
    while k < target and pos < cand.size:
        block = comp[:, cand[pos:pos + min(width, target - k)]].astype(complex, copy=False)
        for _ in range(2 if k else 0):  # the first block has no basis to meet
            block -= basis[:, :k] @ (dagger(basis[:, :k]) @ block)
        vectors, taken = _block_gram_schmidt(block, cutoff)
        basis[:, k:k + vectors.shape[1]] = vectors
        k += vectors.shape[1]
        pos += taken
        width = target if taken == block.shape[1] else max(1, 2 * vectors.shape[1])
    return basis[:, :k]


def _block_gram_schmidt(block: np.ndarray, cutoff: float):
    """The index-ordered Gram-Schmidt of the leading columns of ``block``:
    ``(vectors, taken)``, the vectors of the columns kept among the first
    ``taken``.

    One Householder QR with R's diagonal made real positive gives the
    Gram-Schmidt vectors of the columns in order, |R_tt| being the residual
    norm of column t, up to the first column with |R_tt| <= cutoff.  Past
    it, R also holds the direction of that column's residual, which the
    loop does not keep; so the columns of larger |R_tt| get a QR of their
    own, which stands for the whole block when every other column lies
    within the cut-off of the kept vectors before it (the loop's choice
    column by column).  Otherwise the block is taken up to its first skip.
    """
    q, r = np.linalg.qr(block)
    diag = np.diagonal(r)
    keep = np.abs(diag) > cutoff
    if keep.all():
        return q * (diag / np.abs(diag)), diag.size
    kept, skipped = np.flatnonzero(keep), np.flatnonzero(~keep)
    q_kept, r_kept = np.linalg.qr(block[:, kept])
    kept_diag = np.diagonal(r_kept)
    coef = dagger(q_kept) @ block[:, skipped]
    coef[kept[:, None] > skipped] = 0.0  # each column meets the vectors before it
    if (np.all(np.abs(kept_diag) > cutoff) and np.all(
            np.linalg.norm(block[:, skipped] - q_kept @ coef, axis=0) <= cutoff)):
        return q_kept * (kept_diag / np.abs(kept_diag)), diag.size
    t = int(skipped[0])
    return q[:, :t] * (diag[:t] / np.abs(diag[:t])), t + 1


def orthonormal_complement(p: np.ndarray, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of range(I - p), built deterministically.

    Projects the standard basis vectors in index order onto the
    complement of the projector ``p`` and keeps (Gram-Schmidt with one
    re-orthogonalization pass, blocked as in :func:`_index_ordered_basis`)
    those whose residual exceeds ``gram_schmidt_cutoff(tol, ||p^2 - p||_F)``,
    stopping once it has round(Tr(I - p)) vectors.
    """
    p = _as_square(p, "p")
    return list(_complement_basis(p, frobenius(p @ p - p), tol).T)


def _complement_basis(p, defect, tol):
    """Index-ordered orthonormal columns spanning range(I - p), p of defect ``defect``."""
    d = p.shape[0]
    comp = np.eye(d) - p
    target = int(np.clip(np.nan_to_num(np.round(np.trace(comp).real)), 0, d))
    return _index_ordered_basis(comp, target, gram_schmidt_cutoff(tol, defect))


def complete_isometry(v: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The unitary ``[v | index-ordered orthonormal basis of range(v)^perp]``
    for a d x k isometry v; raises NotPartialIsometry if k > d, or unless
    ||u^dag u - I||_F <= ``acceptance_tol(tol, d)``.

    The complement is the index-ordered Gram-Schmidt of the columns of
    I - v v^dag, with the cut-off taken from the defect ||v^dag v - I||_F,
    in the blocked form of :func:`_index_ordered_basis`: the zero columns
    of a coordinate frame are dropped up front, and a run of columns
    without a skip costs one block QR, so generic input takes one.
    """
    d, k = v.shape
    if k > d:
        raise NotPartialIsometry(f"{k} columns cannot be orthonormal in dimension {d}")
    cutoff = gram_schmidt_cutoff(tol, frobenius(dagger(v) @ v - np.eye(k)))
    u = np.hstack([v, _index_ordered_basis(np.eye(d) - v @ dagger(v), d - k, cutoff)])
    if not (u.shape[1] == d and frobenius(dagger(u) @ u - np.eye(d)) <= acceptance_tol(tol, d)):
        raise NotPartialIsometry("completion failed to produce a unitary")
    return u


def complete_to_unitary(v: np.ndarray, dim: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Extend a partial isometry to a unitary on the full space.

    The completion orthonormalizes the complements of the initial and
    final spaces (standard basis, index order) and pairs them in order,
    so the result is deterministic.  The package itself completes
    isometries with :func:`complete_isometry`.

    Raises
    ------
    NotPartialIsometry
        If ``v^dag v`` or ``v v^dag`` is not a projector within tolerance.
    """
    v = _as_square(v, "v")
    if v.shape[0] != dim:
        raise DimensionMismatch(f"v must be {dim} x {dim}")
    p_init = dagger(v) @ v
    p_fin = v @ dagger(v)
    defects = [frobenius(p @ p - p) for p in (p_init, p_fin)]
    cut = strict_tol(tol, frobenius(p_init))
    if not all(x <= cut for x in (*defects, frobenius(p_init - dagger(p_init)))):
        raise NotPartialIsometry("v^dag v / v v^dag are not projectors")
    dom, ran = (_complement_basis(p, e, tol) for p, e in zip((p_init, p_fin), defects))
    if dom.shape != ran.shape:
        raise NotPartialIsometry(
            f"complement dimensions differ ({dom.shape[1]} vs {ran.shape[1]})")
    u = v + ran @ dagger(dom)
    if not frobenius(dagger(u) @ u - np.eye(dim)) <= acceptance_tol(tol, dim):
        raise NotPartialIsometry("completion failed to produce a unitary")
    return u


def partial_trace_b(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Trace out the B factor of an operator on H_A (x) H_B."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (d_a * d_b, d_a * d_b):
        raise DimensionMismatch(
            f"expected shape {(d_a * d_b, d_a * d_b)}, got {m.shape}")
    return np.einsum("ikjk->ij", m.reshape(d_a, d_b, d_a, d_b))


def majorizes(q: np.ndarray, p: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when the sorted spectrum p is majorized by the sorted spectrum q.

    Both inputs must be real vectors sorted in nonincreasing order.
    Checks every prefix sum ``sum(p[:k]) <= sum(q[:k]) + tol`` and equal
    totals within tolerance.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != p.shape or q.ndim != 1:
        raise LengthMismatch(f"spectra have shapes {q.shape} and {p.shape}")
    if q.size == 0:
        return True
    cq = np.cumsum(q)
    cp = np.cumsum(p)
    atol = strict_tol(tol, abs(cq[-1]))
    if abs(cp[-1] - cq[-1]) > atol:
        return False
    return bool(np.all(cp <= cq + atol))


def numeric_rank(m: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))
