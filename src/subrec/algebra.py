"""Structure theory for the fixed-point dagger-algebra of a unital channel.

The fixed-point set of a unital trace-preserving channel is a
dagger-closed algebra, hence unitarily equivalent to a direct sum
``⊕_k M_{m_k} (x) I_{n_k}`` (plus a zero summand on the complement of
its unit).  This module computes that block decomposition by random
Hermitian probing:

* two random Hermitian elements y, g generate the algebra A, so its
  commutant A' is the commutant of {y, g}; the center A ∩ A' is the
  commutant of y, g and two random Hermitian elements of A';
* a random Hermitian element of the center splits the space into the
  central summands (its eigenvalue clusters);
* inside each summand, the eigenvalue multiplicities of y reveal the
  multiplicity n_k, and g supplies the intertwiners that align the
  multiplicity spaces into an explicit tensor basis.

Every output is certified: the basis must fit the block pattern, and
its span must have dimension Σ m_k^2, which makes it the whole block
algebra and so certifies product closure.  Degenerate draws are
retried on derived seeds before surfacing UnluckySeed.  Noiseless
subsystems of the channel are read off the blocks with m_k > 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel, fixed_point_basis, to_superoperator
from .correctability import check_noiseless
from .errors import NotAnAlgebra, NotUnital, UnluckySeed
from .linalg import (DEFAULT_TOL, acceptance_tol, dagger, frobenius,
                     orthonormal_complement, partial_trace_b, vec)
from .subsystem import SubsystemDecomposition

__all__ = ["AlgebraStructure", "NoiselessSubsystems", "commutant",
           "algebra_structure", "noiseless_subsystems", "enumerate_noiseless"]

_CLUSTER_GAP = 1e-6


@dataclass
class AlgebraStructure:
    """Block decomposition ⊕_k M_{m_k} (x) I_{n_k} with its basis change.

    ``blocks[k] = (m_k, n_k)``; under the unitary ``q`` every algebra
    element is block diagonal with k-th block of the form
    ``X_k (x) I_{n_k}`` at ``offsets[k]`` (and zero on the complement of
    the algebra's unit).  ``residual`` is the worst pattern mismatch
    over the input basis; ``seed_used`` is the probing seed that
    produced the certified output.
    """

    blocks: list[tuple[int, int]]
    q: np.ndarray
    offsets: list[int]
    residual: float
    seed_used: int

    @property
    def quantum_blocks(self) -> list[tuple[int, int]]:
        """Blocks with a matrix factor larger than 1 x 1."""
        return [b for b in self.blocks if b[0] > 1]

    @property
    def classical_sectors(self) -> list[tuple[int, int]]:
        """Blocks with m_k = 1; they carry only classical labels."""
        return [b for b in self.blocks if b[0] == 1]


@dataclass
class NoiselessSubsystems:
    """Noiseless subsystems of a unital channel plus the algebra behind them."""

    structure: AlgebraStructure
    subsystems: list[SubsystemDecomposition]
    residuals: list[float]


def commutant(ops, dim: int | None = None, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal HS basis of {X : XA = AX and XA^dag = A^dag X for all A}.

    Solved as the null space of the stacked commutation system in
    vectorized form; a Hermitian A contributes only its ``XA = AX``
    rows.  With an empty op list the commutant is the full matrix
    algebra.
    """
    ops = [np.asarray(a, dtype=complex) for a in ops]
    if dim is None:
        if not ops:
            raise ValueError("dim is required when ops is empty")
        dim = ops[0].shape[0]
    eye = np.eye(dim)
    rows = []
    for a in ops:
        rows.append(np.kron(a.T, eye) - np.kron(eye, a))
        if not np.array_equal(a, dagger(a)):
            rows.append(np.kron(a.conj(), eye) - np.kron(eye, dagger(a)))
    if not rows:
        rows = [np.zeros((1, dim * dim))]
    system = np.vstack(rows)
    if system.shape[0] < system.shape[1]:
        # pad so the economy SVD still returns every right singular vector
        pad = np.zeros((system.shape[1] - system.shape[0], system.shape[1]))
        system = np.vstack([system, pad])
    _, sv, vh = np.linalg.svd(system, full_matrices=False)
    smax = float(sv[0]) if sv.size else 0.0
    rank = int(np.sum(sv > tol * max(1.0, smax)))
    return [vh[i].conj().reshape(dim, dim, order="F") for i in range(rank, dim * dim)]


def _orthonormal_range(stack, tol):
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, float(s[0]) if s.size else 0.0)))
    return u[:, :rank]


def _in_span(span, mats, tol):
    """Whether every matrix lies in the span, each column judged alone."""
    v = np.column_stack([vec(x) for x in mats])
    off = np.linalg.norm(v - span @ (dagger(span) @ v), axis=0)
    return bool(np.all(off <= tol * np.maximum(1.0, np.linalg.norm(v, axis=0))))


def _check_algebra(basis, tol):
    """Check adjoint and unit closure; return the orthonormal span basis
    (vectorized, d^2 x n) and an orthonormal basis of the unit's support."""
    span = _orthonormal_range(np.column_stack([vec(x) for x in basis]), tol)
    ok_tol = acceptance_tol(tol)
    if not _in_span(span, [dagger(x) for x in basis], ok_tol):
        raise NotAnAlgebra("basis span is not closed under adjoints")
    support = _orthonormal_range(np.hstack(basis), tol)
    unit = support @ dagger(support)
    if not _in_span(span, [unit], ok_tol):
        raise NotAnAlgebra("support projector does not act as a unit inside the span")
    for x in basis:
        if frobenius(unit @ x - x) > ok_tol * max(1.0, frobenius(x)) or \
                frobenius(x @ unit - x) > ok_tol * max(1.0, frobenius(x)):
            raise NotAnAlgebra("support projector does not act as a unit on the basis")
    return span, support


class _RetryProbe(Exception):
    """Internal: the random draw was degenerate, try the next seed."""


def _cluster(values, gap):
    order = np.argsort(values)
    groups = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] < gap:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def _random_hermitian_combo(mats, rng):
    z = sum((rng.normal() + 1j * rng.normal()) * m for m in mats)
    return (z + dagger(z)) / 2.0


def _structure_attempt(basis, support, dim, rng, tol):
    sdim = support.shape[1]
    cbasis = [dagger(support) @ x @ support for x in basis]

    # generic y, g generate A, so {y, g}' = A'; likewise the center
    # A ∩ A' = (A ∪ A')' from y, g and two generic elements of A'
    y = _random_hermitian_combo(cbasis, rng)
    g = _random_hermitian_combo(cbasis, rng)
    cprime = commutant([y, g], sdim, tol=tol)
    center = commutant([y, g, _random_hermitian_combo(cprime, rng),
                        _random_hermitian_combo(cprime, rng)], sdim, tol=tol)
    z = _random_hermitian_combo(center, rng)
    wz, vz = np.linalg.eigh(z)
    gap = _CLUSTER_GAP * max(1.0, float(np.abs(wz).max()))
    summands = _cluster(wz, gap)

    blocks = []
    qcols = []
    for cl in summands:
        r_k = vz[:, cl]
        dim_k = r_k.shape[1]
        y_k = dagger(r_k) @ y @ r_k
        wy, vy = np.linalg.eigh(y_k)
        ygap = _CLUSTER_GAP * max(1.0, float(np.abs(wy).max()))
        groups = _cluster(wy, ygap)
        n_k = len(groups[0])
        if any(len(grp) != n_k for grp in groups):
            raise _RetryProbe("unequal eigenvalue multiplicities")
        m_k = len(groups)
        if m_k * n_k != dim_k:
            raise _RetryProbe("cluster sizes do not tile the summand")
        g_k = dagger(r_k) @ g @ r_k
        s_1 = vy[:, groups[0]]
        cols = []
        for grp in groups:
            s_i = vy[:, grp]
            t_i = dagger(s_i) @ g_k @ s_1
            gram = dagger(t_i) @ t_i
            cval = float(np.trace(gram).real) / n_k
            if cval < 1e-10 or frobenius(gram - cval * np.eye(n_k)) > 1e-6 * max(cval, 1.0):
                raise _RetryProbe("intertwiner is not a scaled unitary")
            cols.append(s_i @ (t_i / np.sqrt(cval)))
        blocks.append((m_k, n_k))
        qcols.append(support @ (r_k @ np.hstack(cols)))

    q_main = np.hstack(qcols)
    q = np.column_stack([q_main, *orthonormal_complement(q_main @ dagger(q_main))])
    if frobenius(dagger(q) @ q - np.eye(dim)) > 1e-7 * dim:
        raise _RetryProbe("assembled basis change lost orthonormality")

    offsets = list(np.cumsum([0] + [m * n for m, n in blocks]))[:-1]
    residual = _pattern_residual(basis, q, blocks, offsets)
    if not residual <= acceptance_tol(tol):
        raise _RetryProbe(f"pattern residual {residual:.3e}")
    return blocks, q, offsets, residual


def _pattern_residual(basis, q, blocks, offsets):
    worst = 0.0
    for x in basis:
        t = dagger(q) @ x @ q
        model = np.zeros_like(t)
        for (m_k, n_k), off in zip(blocks, offsets):
            blk = t[off:off + m_k * n_k, off:off + m_k * n_k]
            x_k = partial_trace_b(blk, m_k, n_k) / n_k
            model[off:off + m_k * n_k, off:off + m_k * n_k] = np.kron(x_k, np.eye(n_k))
        worst = max(worst, frobenius(t - model) / max(1.0, frobenius(x)))
    return worst


def algebra_structure(basis, seed: int = 0, tol: float = DEFAULT_TOL) -> AlgebraStructure:
    """Block decomposition of a dagger-closed algebra spanned by ``basis``.

    Parameters
    ----------
    basis : sequence of ndarray
        Matrices spanning a dagger-closed, product-closed algebra that
        contains a projector acting as its unit (verified), not
        necessarily orthonormal.
    seed : int
        Seed of the random Hermitian probing; retried on ``seed + 1``,
        ..., ``seed + 4`` if a draw is degenerate.

    Raises
    ------
    NotAnAlgebra
        If the adjoint or unit checks fail, or the span is not product
        closed: smaller than the block algebra that contains it, or, when
        no probe fits, missing the product of two random elements.
    UnluckySeed
        If probing stayed degenerate for five consecutive seeds.
    """
    basis = [np.asarray(x, dtype=complex) for x in basis]
    if not basis:
        raise NotAnAlgebra("empty basis")
    dim = basis[0].shape[0]
    span, support = _check_algebra(basis, tol)

    reasons = []
    for attempt in range(5):
        rng = np.random.default_rng(seed + attempt)
        try:
            blocks, q, offsets, residual = _structure_attempt(
                basis, support, dim, rng, tol)
        except _RetryProbe as exc:
            reasons.append(f"seed {seed + attempt}: {exc}")
            continue
        # the basis lies in ⊕ M_{m_k} (x) I_{n_k}; spanning all of it
        # means the span is that algebra, hence product closed
        if span.shape[1] != sum(m * m for m, _ in blocks):
            raise NotAnAlgebra(f"basis spans dimension {span.shape[1]} inside the block "
                               f"algebra of {blocks}: not closed under products")
        return AlgebraStructure(blocks=blocks, q=q, offsets=offsets,
                                residual=residual, seed_used=seed + attempt)
    # a span that no probe could fit is usually not product closed; the
    # product of two random elements then leaves it with probability 1
    rng = np.random.default_rng(seed)
    x, y = _random_hermitian_combo(basis, rng), _random_hermitian_combo(basis, rng)
    if not _in_span(span, [x @ y], acceptance_tol(tol)):
        raise NotAnAlgebra("basis span is not closed under products")
    raise UnluckySeed(f"algebra probing failed after 5 seeds: {'; '.join(reasons)}")


def enumerate_noiseless(ch: KrausChannel, seed: int = 0,
                        tol: float = DEFAULT_TOL) -> NoiselessSubsystems:
    """Noiseless subsystems of a unital channel from its fixed-point algebra.

    Computes the fixed-point basis, its block structure, and for each
    block with m_k > 1 the maximal subsystem decomposition with
    d_B = m_k and d_A = n_k, read off the columns of the basis-change
    unitary.  Every emitted decomposition is certified by
    :func:`~subrec.correctability.check_noiseless`.
    """
    if not ch.is_unital:
        raise NotUnital("noiseless-subsystem enumeration requires a unital channel")
    basis = fixed_point_basis(to_superoperator(ch), tol=tol)
    structure = algebra_structure(basis, seed=seed, tol=tol)

    subsystems = []
    residuals = []
    for (m_k, n_k), off in zip(structure.blocks, structure.offsets):
        if m_k <= 1:
            continue
        w = np.zeros((ch.dim, n_k * m_k), dtype=complex)
        # fixed-point elements act as X (x) I_{n_k}; the protected factor
        # is the matrix factor, so d_B = m_k and the A-major column of W
        # for |a>(x)|b> is the Q column with inner index b * n_k + a.
        for a in range(n_k):
            for b in range(m_k):
                w[:, a * m_k + b] = structure.q[:, off + b * n_k + a]
        dec = SubsystemDecomposition(ch.dim, n_k, m_k, w, tol=tol)
        verdict = check_noiseless(ch, dec, tol=tol)
        if not verdict.ok:
            raise UnluckySeed(
                f"emitted block (m={m_k}, n={n_k}) failed the noiseless check "
                f"(residual {verdict.residual:.3e})")
        subsystems.append(dec)
        residuals.append(verdict.residual)
    return NoiselessSubsystems(structure=structure, subsystems=subsystems,
                               residuals=residuals)


def noiseless_subsystems(ch: KrausChannel, seed: int = 0,
                         tol: float = DEFAULT_TOL) -> list[SubsystemDecomposition]:
    """The maximal noiseless subsystems of a unital channel."""
    return enumerate_noiseless(ch, seed=seed, tol=tol).subsystems
