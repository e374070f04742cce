"""Quantum channels in Kraus form and their superoperator matrices.

A channel is a trace-preserving completely positive map
``E(sigma) = sum_a E_a sigma E_a^dag`` given by a finite list of Kraus
operators.  The dual (adjoint) map has Kraus operators ``{E_a^dag}``;
it is trace preserving exactly when the channel is unital.  Channels
compare by action on an operator basis, never by Kraus lists, because
Kraus representations are only unique up to a unitary remixing.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotTracePreserving
from .linalg import DEFAULT_TOL, dagger, frobenius, strict_tol, unvec
from .subsystem import certify_code_map

__all__ = [
    "KrausChannel",
    "dual",
    "compose",
    "to_superoperator",
    "fixed_point_basis",
    "channels_equal",
]


class KrausChannel:
    """A completely positive map as a finite list of d x d Kraus operators.

    Parameters
    ----------
    kraus : sequence of ndarray
        Nonempty list of square matrices, all of one dimension.
    require_tp : bool
        When True (default) construction fails with
        :class:`~subrec.errors.NotTracePreserving` unless
        ``sum_a E_a^dag E_a = I`` within tolerance.  Duals and other
        intermediate maps are built with ``require_tp=False``.
    tol : float
        Relative tolerance of the structural checks.
    """

    def __init__(self, kraus, require_tp: bool = True, tol: float = DEFAULT_TOL):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise DimensionMismatch("a channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise DimensionMismatch("Kraus operators must share one square shape")
            if not np.all(np.isfinite(k)):
                raise NotFinite("Kraus operators must have finite entries")
        self.kraus = self._built = tuple(ops)
        self.dim = d
        self.tol = tol
        self.tp_defect = frobenius(sum(dagger(k) @ k for k in ops) - np.eye(d))
        if require_tp and not self.is_trace_preserving:
            raise NotTracePreserving(
                f"sum E_a^dag E_a differs from identity by {self.tp_defect:.3e}")

    @property
    def m(self) -> int:
        """Number of Kraus operators."""
        return len(self.kraus)

    @functools.cached_property
    def unital_defect(self) -> float:
        """||sum_a E_a E_a^dag - I||_F of the operators the channel was built
        with, as ``tp_defect``; computed on first use, since checking and
        recovering a subsystem never read it."""
        return frobenius(sum(k @ dagger(k) for k in self._built) - np.eye(self.dim))

    @property
    def is_trace_preserving(self) -> bool:
        return self.tp_defect <= strict_tol(self.tol, np.sqrt(self.dim))

    @property
    def is_unital(self) -> bool:
        """True when E(I) = I within tolerance."""
        return self.unital_defect <= strict_tol(self.tol, np.sqrt(self.dim))

    def apply(self, sigma: np.ndarray) -> np.ndarray:
        """E(sigma) = sum_a E_a sigma E_a^dag."""
        sigma = np.asarray(sigma, dtype=complex)
        if sigma.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"operator shape {sigma.shape} does not match dim {self.dim}")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k in self.kraus:
            out += k @ sigma @ dagger(k)
        return out

    def __call__(self, sigma: np.ndarray) -> np.ndarray:
        return self.apply(sigma)

    def __repr__(self):
        return f"KrausChannel(dim={self.dim}, m={self.m}, unital={self.is_unital})"


def dual(ch: KrausChannel) -> KrausChannel:
    """The adjoint map E^dag, with Kraus operators {E_a^dag}.

    Satisfies Tr(dual(ch)(sigma) tau) = Tr(sigma ch(tau)).  The result is
    trace preserving iff ``ch`` is unital, so no TP check is applied.
    """
    return KrausChannel([dagger(k) for k in ch.kraus], require_tp=False, tol=ch.tol)


def compose(f: KrausChannel, g: KrausChannel) -> KrausChannel:
    """The composition f∘g, i.e. ``sigma -> f(g(sigma))``."""
    if f.dim != g.dim:
        raise DimensionMismatch(f"dims differ: {f.dim} vs {g.dim}")
    kraus = [fa @ gb for fa in f.kraus for gb in g.kraus]
    return KrausChannel(kraus, require_tp=False, tol=max(f.tol, g.tol))


def to_superoperator(ch: KrausChannel) -> np.ndarray:
    """Superoperator matrix of the channel, ``sum_a conj(E_a) kron E_a``.

    With ``vec`` the column-stacking vectorization it satisfies
    ``S @ vec(X) = vec(E(X))``.  A d^2 x d^2 array: no discovery path
    builds it; it stays public as a dense test reference (the benchmark
    tracer looks it up by name).
    """
    d = ch.dim
    mat = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.kraus:
        mat += np.kron(k.conj(), k)
    return mat


def fixed_point_basis(s: np.ndarray, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) basis of {X : E(X) = X}, for the map E
    whose superoperator matrix is ``s`` (d^2 x d^2).

    Computed as the null space of (S - I); singular values below
    ``strict_tol(tol, s_max)`` are treated as zero.  A dense test reference
    for the fixed points that discovery reads off the interaction algebra.
    """
    s = np.asarray(s, dtype=complex)
    d = math.isqrt(s.shape[0]) if s.ndim == 2 else 0
    if s.shape != (d * d, d * d):
        raise DimensionMismatch(f"superoperator matrix must be d^2 x d^2, got {s.shape}")
    delta = s - np.eye(d * d)
    _, sv, vh = np.linalg.svd(delta)
    smax = float(sv[0]) if sv.size else 0.0
    rank = int(np.sum(sv > strict_tol(tol, smax)))
    return [unvec(vh[i].conj(), d) for i in range(rank, d * d)]


def channels_equal(f: KrausChannel, g: KrausChannel, tol: float = DEFAULT_TOL) -> bool:
    """Equality of channel actions on a complete operator basis.

    The superoperator is a reshuffle of the Choi matrix X X^dag, where the
    columns of X are the vectorized Kraus operators, so ||S_f - S_g||_F is
    the norm of X_f X_f^dag - X_g X_g^dag: the code-map identity with
    d_A = d_B = 1, f's columns as operators, g's as frame and F = I, whose
    R factors keep any d^2 x d^2 array unformed.  Judged at
    ``strict_tol(tol, ||S_f||_F)``, ||S_f||_F = ||X_f^dag X_f||_F.
    """
    if f.dim != g.dim:
        return False
    x_f = np.asarray(f.kraus).reshape(f.m, -1).T
    x_g = np.asarray(g.kraus).reshape(g.m, -1).T
    residual = certify_code_map(x_f.T[..., None], 1, 1, frame=x_g,
                                superop=np.eye(g.m).reshape(-1, 1)).residual
    return residual <= strict_tol(tol, frobenius(dagger(x_f) @ x_f))
