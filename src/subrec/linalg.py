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
===========================  ===============================  =================  =============

[1] inputs (Hermitian, projector, polar factor, TP, unital, W) and
certificates (factorization, s = ||E_a^dag E_b||_F, formed only where
its bound ||E_a||_F ||E_b||_F cannot decide the pair; F >= 0, G_A
identity, noiseless, spans,
``channels_equal``), and the live eigenvalues of F (s = lambda_max)
that set dim C and ``find_ucc``'s rank diagnostics; [2] assembled
results: the G_a orthogonality gate (s = lambda_max of F, judged on its
bound from the pair residuals, and on the exact Gram blocks where that
bound exceeds it), the unitarity of every completion (s = d), algebra
closure and the pattern fit of every check element or generator, the
correction's TP defect (s = √d), the UCC correction;
[3] ``algebra``: eigenvalue clusters, links gap ||g||, intertwiner defect
gap max(1, c); [4] index-ordered Gram-Schmidt on a projector of defect δ.
Why these values: README, "Tolerance".
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    FactorMismatch,
    NotHermitian,
    NotPartialIsometry,
)

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "dagger",
    "frobenius",
    "vec",
    "operator_basis",
    "hermitian_eig",
    "polar_isometry_on_support",
    "complete_to_unitary",
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
    projected off the vectors kept so far twice (one re-orthogonalization
    pass), is kept when its residual norm exceeds ``cutoff``, until
    ``target`` are kept; returns them as columns."""
    basis = np.zeros((comp.shape[0], 0), dtype=complex)
    for v in comp.T.astype(complex):
        if basis.shape[1] == target:
            break
        for _ in range(2):
            v -= basis @ (dagger(basis) @ v)
        norm = np.linalg.norm(v)
        if norm > cutoff:
            basis = np.column_stack([basis, v / norm])
    return basis


def orthonormal_complement(p: np.ndarray, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of range(I - p), built deterministically.

    Projects the standard basis vectors in index order onto the
    complement of the projector ``p`` and keeps (Gram-Schmidt with one
    re-orthogonalization pass, :func:`_index_ordered_basis`) those whose
    residual exceeds ``gram_schmidt_cutoff(tol, ||p^2 - p||_F)``,
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
    """The unitary ``[v | Q[:, k:]]`` for a d x k isometry v, Q from v's
    complete Householder QR (not taken when k = d); raises NotPartialIsometry
    if k > d, or unless ||u^dag u - I||_F <= ``acceptance_tol(tol, d)``.
    Q[:, k:] is orthogonal to range(v) to rounding, whatever v's defect, and
    a coordinate frame completes to I exactly (each reflector is I)."""
    v = np.asarray(v, dtype=complex)
    d, k = v.shape
    if k > d:
        raise NotPartialIsometry(f"{k} columns cannot be orthonormal in dimension {d}")
    u = v.copy() if k == d else np.hstack([v, np.linalg.qr(v, mode="complete")[0][:, k:]])
    if not frobenius(dagger(u) @ u - np.eye(d)) <= acceptance_tol(tol, d):
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
