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
from .linalg import DEFAULT_TOL, dagger, frobenius, partial_trace_b

__all__ = ["SubsystemDecomposition", "FactorResult", "embed_product", "factor_on_range"]


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
        if not defect <= tol * max(1.0, np.sqrt(d_a * d_b)):
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
    return FactorResult(x, residual, residual <= tol * max(1.0, frobenius(m)))
