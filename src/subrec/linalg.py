"""Dense complex linear algebra primitives used by every other module.

Conventions fixed here and used everywhere:

* composite index on a tensor product H_A (x) H_B is ``a * d_B + b``
  (A-major, the order produced by ``numpy.kron``);
* ``vec`` is column-stacking, so ``vec(A X B) = (B^T kron A) vec(X)``;
* the global default tolerance is ``DEFAULT_TOL = 1e-9`` (relative,
  Frobenius) for all structural checks; results assembled from
  certified pieces are accepted at the looser ``acceptance_tol(tol)``.
"""

from __future__ import annotations

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


def acceptance_tol(tol: float) -> float:
    """Acceptance threshold for assembled results: ``max(100 tol, 1e-7)``."""
    return max(100 * tol, 1e-7)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
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
        Hermitian matrix (within ``tol * ||m||_F``).
    tol : float
        Relative tolerance of the symmetry check.

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
    m = _as_square(m)
    defect = frobenius(m - dagger(m))
    if not defect <= tol * max(1.0, frobenius(m)):
        raise NotHermitian(f"symmetry residual {defect:.3e} exceeds tolerance")
    w, q = np.linalg.eigh((m + dagger(m)) / 2.0)
    # stable descending order: exact ties keep the solver's ordering, so
    # already-diagonal inputs come back with untouched eigenvectors
    order = np.argsort(-w, kind="stable")
    w = w[order]
    q = q[:, order]
    return w, _canonicalize_eigenvectors(w, q)


def _canonicalize_eigenvectors(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Deterministic eigenbasis: canonical vectors inside degenerate clusters.

    Within each cluster of eigenvalues closer than 1e-10 (relative) the
    solver's basis is arbitrary; replace it by the index-ordered
    Gram-Schmidt of the standard basis projected onto the eigenspace.
    Every column's phase is then fixed so its largest entry is real
    positive.  Reconstruction error stays below the cluster width.
    """
    d = w.size
    gap = 1e-10 * max(1.0, float(np.abs(w).max()) if d else 1.0)
    q = q.copy()
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and w[stop - 1] - w[stop] <= gap:
            stop += 1
        if stop - start > 1:
            block = q[:, start:stop]
            fresh = orthonormal_complement(np.eye(d) - block @ dagger(block))
            if len(fresh) == stop - start:
                q[:, start:stop] = np.column_stack(fresh)
        start = stop
    for j in range(d):
        pivot = int(np.argmax(np.abs(q[:, j])))
        phase = q[pivot, j] / abs(q[pivot, j])
        q[:, j] = q[:, j] / phase
    return q


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
        If ``||g^dag g - s^2||_F`` exceeds ``tol * max(1, ||s^2||_F)``.
    """
    g = _as_square(g, "g")
    s = _as_square(s, "s")
    if g.shape != s.shape:
        raise DimensionMismatch("g and s must have equal shapes")
    s2 = s @ s
    defect = frobenius(dagger(g) @ g - s2)
    if not defect <= tol * max(1.0, frobenius(s2)):
        raise FactorMismatch(f"||g^dag g - s^2|| = {defect:.3e} exceeds tolerance")
    w, q = hermitian_eig(s, tol=tol)
    cutoff = tol * max(1.0, float(w[0]) if w.size else 0.0)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return g @ (q * inv) @ dagger(q)


def orthonormal_complement(p: np.ndarray, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of range(I - p), built deterministically.

    Projects the standard basis vectors in index order onto the
    complement of the projector ``p`` and keeps (Gram-Schmidt, one
    re-orthogonalization pass) the ones with non-negligible residual,
    stopping once it has round(Tr(I - p)) vectors.
    """
    p = _as_square(p, "p")
    d = p.shape[0]
    comp = np.eye(d) - p
    target = int(np.clip(np.nan_to_num(np.round(np.trace(comp).real)), 0, d))
    basis = np.zeros((d, target), dtype=complex, order="F")
    k = 0
    for j in range(d):
        if k == target:
            break
        v = comp[:, j]
        for _ in range(2):
            # v -= Q (Q^dag v), conjugating vectors rather than Q
            v = v - basis[:, :k] @ (v.conj() @ basis[:, :k]).conj()
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            basis[:, k] = v / norm
            k += 1
    return list(basis[:, :k].T)


def complete_to_unitary(v: np.ndarray, dim: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Extend a partial isometry to a unitary on the full space.

    The completion orthonormalizes the complements of the initial and
    final spaces (standard basis, index order) and pairs them in order,
    so the result is deterministic.

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
    scale = max(1.0, frobenius(p_init))
    if not (frobenius(p_init @ p_init - p_init) <= tol * scale and
            frobenius(p_fin @ p_fin - p_fin) <= tol * scale and
            frobenius(p_init - dagger(p_init)) <= tol * scale):
        raise NotPartialIsometry("v^dag v / v v^dag are not projectors")
    dom = orthonormal_complement(p_init, tol=tol)
    ran = orthonormal_complement(p_fin, tol=tol)
    if len(dom) != len(ran):
        raise NotPartialIsometry(
            f"complement dimensions differ ({len(dom)} vs {len(ran)})")
    u = v + np.reshape(ran, (-1, dim)).T @ np.reshape(dom, (-1, dim)).conj()
    if not frobenius(dagger(u) @ u - np.eye(dim)) <= 10 * tol * max(1.0, dim):
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
    atol = tol * max(1.0, float(np.abs(cq[-1])))
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
