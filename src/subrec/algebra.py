"""Structure theory for the fixed-point dagger-algebra of a unital channel.

The fixed-point set of a unital trace-preserving channel E is a
dagger-closed algebra, hence unitarily equivalent to a direct sum
``⊕_k M_{m_k} (x) I_{n_k}`` (plus a zero summand on the complement of
its unit).  This module computes that block decomposition from two
generic Hermitian elements y, g of the algebra and one more element to
check the result against.  Neither a basis of the fixed-point set nor
any d^2 x d^2 matrix is formed:

* a random fixed point is the limit of conjugate gradients on the
  positive semidefinite map I - Ψ, Ψ = (E + E^dag) / 2, applied through
  the Kraus operators.  Started at a random Hermitian X, the iteration
  converges to the projection of X onto Fix(E): for unital
  trace-preserving E, Re<X, E(X)> = ||X||^2 holds exactly when
  E(X) = X, so Fix(Ψ) = Fix(E).  It stops once
  ||Ψ(y) - y|| / ||y|| is below ``fixed_point_target(tol, d)``, at least
  three orders under the relative eigenvalue-cluster gap
  ``cluster_gap(tol)`` (both in :mod:`subrec.linalg`), and takes at most
  d^2 steps, the dimension of the operator space;
* the eigenvalues of y fall into clusters, one per eigenvalue of the
  matrix factor of its summand and each as large as the summand's
  multiplicity n_k.  Two clusters lie in one central summand exactly
  when a path of nonzero blocks of g, written in the eigenbasis of y,
  links them (eigenspace connectivity; Murota, Kanno, Kojima & Kojima,
  Japan J. Indust. Appl. Math. 27 (2010)), so the summands are the
  connected components of that graph;
* inside each summand, g supplies the intertwiners that align the
  multiplicity spaces into an explicit tensor basis.

Every output is certified.  For a spanning set (``algebra_structure``)
each input element must fit the block pattern, and the span must have
dimension Σ m_k^2, which makes it the whole block algebra and so
certifies product closure.  For a channel (``enumerate_noiseless``) a
third random fixed point must fit the block pattern (a larger Fix(E)
would leave it with probability 1), and every summand projector P_k
must satisfy Ψ(P_k) = P_k and every emitted block must pass
``check_noiseless`` (so the block algebra lies in Fix(E)).  Degenerate
draws are retried on derived seeds before surfacing UnluckySeed.
Noiseless subsystems of the channel are read off the blocks with
m_k > 1.

``commutant`` here, and ``fixed_point_basis`` and ``to_superoperator``
in :mod:`subrec.channel`, are dense (d^2-sized) references: no discovery
path calls them, and they stay public for tests, the benchmark tracer
and the demos, which look them up by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import KrausChannel
from .correctability import check_noiseless
from .errors import (DimensionMismatch, NotAnAlgebra, NotFinite, NotPartialIsometry,
                     NotTracePreserving, NotUnital, UnluckySeed)
from .linalg import (DEFAULT_TOL, acceptance_tol, cluster_gap, complete_isometry, dagger,
                     eigenvalue_clusters, fixed_point_target, frobenius, partial_trace_b,
                     strict_tol, vec)
from .subsystem import SubsystemDecomposition

__all__ = ["AlgebraStructure", "NoiselessSubsystems", "commutant",
           "algebra_structure", "noiseless_subsystems", "enumerate_noiseless"]

_ATTEMPTS = 5


@dataclass
class AlgebraStructure:
    """Block decomposition ⊕_k M_{m_k} (x) I_{n_k} with its basis change.

    ``blocks[k] = (m_k, n_k)``; under the unitary ``q`` every algebra
    element is block diagonal with k-th block of the form
    ``X_k (x) I_{n_k}`` at ``offsets[k]`` (and zero on the complement of
    the algebra's unit).  ``residual`` is the worst pattern mismatch
    over the check elements (the input basis, or one random fixed
    point); ``seed_used`` is the probing seed that produced the
    certified output.  For a fixed-point algebra,
    ``fixed_point_residual`` is the worst convergence residual
    ||Ψ(y) - y|| / ||y|| of the three random fixed points and
    ``fixed_point_steps`` their conjugate-gradient step counts; both are
    empty for an algebra given by a spanning set.
    """

    blocks: list[tuple[int, int]]
    q: np.ndarray
    offsets: list[int]
    residual: float
    seed_used: int
    fixed_point_residual: float | None = None
    fixed_point_steps: list[int] = field(default_factory=list)

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
    algebra.  Dense (a d^2-column system); a test reference, not used
    by the structure probe.
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
    rank = int(np.sum(sv > strict_tol(tol, smax)))
    return [vh[i].conj().reshape(dim, dim, order="F") for i in range(rank, dim * dim)]


def _orthonormal_range(stack, tol):
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > strict_tol(tol, s[0] if s.size else 0.0)))
    return u[:, :rank]


def _in_span(span, mats, tol):
    """Whether every matrix lies in the span, each column judged alone."""
    v = np.column_stack([vec(x) for x in mats])
    off = np.linalg.norm(v - span @ (dagger(span) @ v), axis=0)
    return bool(np.all(off <= strict_tol(tol, np.linalg.norm(v, axis=0))))


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
        cut = strict_tol(ok_tol, frobenius(x))
        if not (frobenius(unit @ x - x) <= cut and frobenius(x @ unit - x) <= cut):
            raise NotAnAlgebra("support projector does not act as a unit on the basis")
    return span, support


class _RetryProbe(Exception):
    """Internal: the random draw was degenerate, try the next seed."""


def _random_hermitian_combo(mats, rng):
    z = sum((rng.normal() + 1j * rng.normal()) * m for m in mats)
    return (z + dagger(z)) / 2.0


def _draw_from_span(cbasis, basis, rng):
    """y, g from the support-compressed basis; the check elements are the basis."""
    y, g = _random_hermitian_combo(cbasis, rng), _random_hermitian_combo(cbasis, rng)
    return y, g, basis, (None, [])


def _psi_kraus(ch: KrausChannel) -> np.ndarray:
    """Kraus operators of Ψ = (E + E^dag) / 2, stacked: E_a / √2, then E_a^dag / √2."""
    ops = np.asarray(ch.kraus)
    return np.concatenate([ops, ops.conj().transpose(0, 2, 1)]) / np.sqrt(2.0)


def _step_cap(dim: int) -> int:
    """Conjugate gradients ends in at most as many steps as the real
    dimension of the Hermitian operators, d^2."""
    return dim * dim


def _fixed_point(ops, x, target):
    """Projection of the Hermitian x onto Fix(Ψ), Ψ(X) = Σ L X L^dag over ``ops``.

    Conjugate gradients on I - Ψ with right-hand side 0 started at x:
    every update lies in the range of I - Ψ, so the iterates converge to
    x minus its range component.  Stops when the recurrence and then the
    recomputed residual ||Ψ(y) - y|| / ||y|| are at most ``target``;
    returns ``(y, residual, steps)``.
    """
    ops_dag = ops.conj().transpose(0, 2, 1)

    def minus_gradient(v):  # Ψ(v) - v = -(I - Ψ)(v)
        return (ops @ v @ ops_dag).sum(axis=0) - v

    r = minus_gradient(x)
    p = r
    rr = np.vdot(r, r).real
    steps = 0
    while True:
        norm = frobenius(x)
        if np.sqrt(rr) <= target * norm:
            r = minus_gradient(x)  # the recurrence drifts; judge the true residual
            residual = frobenius(r) / norm
            if residual <= target:
                return (x + dagger(x)) / 2.0, residual, steps
            p = r
            rr = np.vdot(r, r).real
        if not np.isfinite(rr):
            raise NotFinite(f"fixed-point iteration produced a non-finite residual after "
                            f"{steps} steps")
        if steps >= _step_cap(x.shape[0]):
            raise _RetryProbe(f"fixed point did not converge: residual "
                              f"{np.sqrt(rr) / norm:.3e} after {steps} steps")
        ap = -minus_gradient(p)
        curvature = np.vdot(p, ap).real
        if not np.isfinite(curvature):
            raise NotFinite(f"fixed-point iteration produced a non-finite curvature after "
                            f"{steps} steps")
        # <X, (I - Ψ) X> >= 0 for every trace-preserving unital channel; for
        # a direction in Fix(Ψ) the computed value is rounding, at most about
        # (number of Kraus terms) d eps ||p||^2
        rounding = ops.shape[0] * x.shape[0] * np.finfo(float).eps * np.vdot(p, p).real
        if not curvature >= -rounding:
            raise NotTracePreserving(
                f"I - (E + E^dag)/2 has curvature {curvature:.3e} < 0 at step {steps}; "
                "fixed points by iteration need a trace-preserving channel")
        if not curvature > rounding:
            raise _RetryProbe(f"fixed point stagnated: residual {np.sqrt(rr) / norm:.3e} "
                              f"after {steps} steps")
        alpha = rr / curvature
        x = x + alpha * p
        r = r - alpha * ap
        rr_next = np.vdot(r, r).real
        p = r + (rr_next / rr) * p
        rr = rr_next
        steps += 1


def _draw_fixed_points(ops, target, rng):
    """y, g and the check element: three independent random fixed points,
    with their worst convergence residual and their step counts."""
    dim = ops.shape[1]
    points, residuals, steps = [], [], []
    for _ in range(3):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        point, residual, n_steps = _fixed_point(ops, (z + dagger(z)) / 2.0, target)
        points.append(point)
        residuals.append(residual)
        steps.append(n_steps)
    return points[0], points[1], points[2:], (float(np.max(residuals)), steps)


def _eigenspace_blocks(y, g, tol):
    """Blocks (m_k, n_k) and tensor-basis columns of the algebra that the
    generic Hermitian y, g generate.

    Clusters of eigenvalues of y closer than ``cluster_gap(tol)``
    (relative) are one eigenvalue of a matrix factor; the summands are the
    connected components of the clusters linked by a block of g, in the
    eigenbasis of y, of norm above ``cluster_gap(tol) ||g||``.  Each
    member's link to the first cluster of its summand must be a scaled
    unitary within ``cluster_gap(tol)``.  Cost: one ``eigh`` and one
    d x d congruence.
    """
    gap = cluster_gap(tol)
    wy, vy = np.linalg.eigh(y)
    starts = eigenvalue_clusters(wy, gap)
    bounds = np.append(starts, wy.size)
    gy = dagger(vy) @ g @ vy
    weights = np.add.reduceat(np.add.reduceat(gy.real ** 2 + gy.imag ** 2, starts, axis=0),
                              starts, axis=1)
    linked = weights > (gap * frobenius(g)) ** 2
    labels = _components(linked)

    blocks = []
    cols = []
    for label in np.flatnonzero(labels == np.arange(labels.size)):  # component roots
        members = np.flatnonzero(labels == label)
        sizes = bounds[members + 1] - bounds[members]
        n_k = int(sizes[0])
        if np.any(sizes != n_k):
            raise _RetryProbe("unequal eigenvalue multiplicities")
        first = slice(bounds[members[0]], bounds[members[0] + 1])
        for c in members:
            rows = slice(bounds[c], bounds[c + 1])
            t_c = gy[rows, first]
            gram = dagger(t_c) @ t_c
            cval = float(np.trace(gram).real) / n_k
            if not (linked[c, members[0]] and
                    frobenius(gram - cval * np.eye(n_k)) <= strict_tol(gap, cval)):
                raise _RetryProbe("intertwiner is not a scaled unitary")
            cols.append(vy[:, rows] @ (t_c / np.sqrt(cval)))
        blocks.append((len(members), n_k))
    return blocks, np.hstack(cols)


def _components(linked):
    """Connected-component labels of a symmetric adjacency matrix; each
    label is the smallest index in its component."""
    labels = np.arange(len(linked))
    while True:
        merged = np.minimum(labels, np.where(linked, labels, labels.size).min(axis=1))
        if np.array_equal(merged, labels):
            return labels
        labels = merged


def _structure_attempt(draw, support, dim, rng, tol):
    """One probe: draw y, g and the check elements, read the blocks off
    y and g, assemble the basis change and fit every check element."""
    y, g, checks, convergence = draw(rng)
    blocks, cols = _eigenspace_blocks(y, g, tol)
    try:
        q = complete_isometry(cols if support is None else support @ cols, tol)
    except NotPartialIsometry:
        raise _RetryProbe("assembled basis change lost orthonormality") from None

    offsets = np.cumsum([0] + [m * n for m, n in blocks])[:-1].tolist()
    residual = _pattern_residual(checks, q, blocks, offsets)
    if not residual <= acceptance_tol(tol):
        raise _RetryProbe(f"pattern residual {residual:.3e}")
    return blocks, q, offsets, residual, convergence


def _pattern_residual(checks, q, blocks, offsets):
    worst = []
    for x in checks:
        t = dagger(q) @ x @ q
        model = np.zeros_like(t)
        for (m_k, n_k), off in zip(blocks, offsets):
            blk = t[off:off + m_k * n_k, off:off + m_k * n_k]
            x_k = partial_trace_b(blk, m_k, n_k) / n_k
            model[off:off + m_k * n_k, off:off + m_k * n_k] = np.kron(x_k, np.eye(n_k))
        worst.append(frobenius(t - model) / max(1.0, frobenius(x)))
    return float(np.max(worst))  # a NaN stays NaN


def _probe(draw, support, dim, seed, tol):
    """The retry loop of both callers: ``(structure, reasons)``, with
    ``structure`` None when every seed was degenerate."""
    reasons = []
    for attempt in range(_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        try:
            blocks, q, offsets, residual, (fp_residual, fp_steps) = _structure_attempt(
                draw, support, dim, rng, tol)
        except _RetryProbe as exc:
            reasons.append(f"seed {seed + attempt}: {exc}")
            continue
        return AlgebraStructure(blocks, q, offsets, residual, seed + attempt,
                                fp_residual, fp_steps), reasons
    return None, reasons


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
    cbasis = [dagger(support) @ x @ support for x in basis]

    structure, reasons = _probe(functools.partial(_draw_from_span, cbasis, basis),
                                support, dim, seed, tol)
    if structure is not None:
        # the basis lies in ⊕ M_{m_k} (x) I_{n_k}; spanning all of it
        # means the span is that algebra, hence product closed
        if span.shape[1] != sum(m * m for m, _ in structure.blocks):
            raise NotAnAlgebra(f"basis spans dimension {span.shape[1]} inside the block "
                               f"algebra of {structure.blocks}: not closed under products")
        return structure
    # a span that no probe could fit is usually not product closed; the
    # product of two random elements then leaves it with probability 1
    rng = np.random.default_rng(seed)
    x, y = _random_hermitian_combo(basis, rng), _random_hermitian_combo(basis, rng)
    if not _in_span(span, [x @ y], acceptance_tol(tol)):
        raise NotAnAlgebra("basis span is not closed under products")
    raise UnluckySeed(f"algebra probing failed after {_ATTEMPTS} seeds: {'; '.join(reasons)}")


def enumerate_noiseless(ch: KrausChannel, seed: int = 0,
                        tol: float = DEFAULT_TOL) -> NoiselessSubsystems:
    """Noiseless subsystems of a unital channel from its fixed-point algebra.

    Draws three random fixed points by conjugate gradients, reads the
    block structure off two of them and checks it against the third,
    and for each block with m_k > 1 emits the maximal subsystem
    decomposition with d_B = m_k and d_A = n_k, read off the columns of
    the basis-change unitary.  Every summand projector must be fixed and
    every emitted decomposition must pass
    :func:`~subrec.correctability.check_noiseless`.

    Raises
    ------
    NotUnital
        If the channel is not unital.
    UnluckySeed
        If probing stayed degenerate for five consecutive seeds (each
        seed listed with its reason: a fixed point that did not converge
        in d^2 steps, or stalled at rounding, gives its residual and step
        count), an emitted W is not an isometry at ``strict_tol``, or a
        certificate failed.
    NotFinite, NotTracePreserving
        If the fixed-point iteration meets a non-finite value, or a
        direction of negative curvature beyond rounding, which a
        trace-preserving unital channel cannot have.
    """
    if not ch.is_unital:
        raise NotUnital("noiseless-subsystem enumeration requires a unital channel")
    ops = _psi_kraus(ch)
    target = fixed_point_target(tol, ch.dim)
    structure, reasons = _probe(functools.partial(_draw_fixed_points, ops, target),
                                None, ch.dim, seed, tol)
    if structure is None:
        raise UnluckySeed(f"fixed-point probing failed after {_ATTEMPTS} seeds: "
                          f"{'; '.join(reasons)}")

    subsystems = []
    residuals = []
    for (m_k, n_k), off in zip(structure.blocks, structure.offsets):
        # Ψ(P_k) = P_k through P_k = Q_k Q_k^dag: Ψ(P_k) = N N^dag, N = [L Q_k]_L
        q_k = structure.q[:, off:off + m_k * n_k]
        n = (ops @ q_k).transpose(1, 0, 2).reshape(ch.dim, -1)
        drift = frobenius(n @ dagger(n) - q_k @ dagger(q_k))
        if not drift <= acceptance_tol(tol, np.sqrt(m_k * n_k)):
            raise UnluckySeed(f"summand projector of block (m={m_k}, n={n_k}) is not "
                              f"fixed (residual {drift:.3e})")
        if m_k <= 1:
            continue
        # fixed-point elements act as X (x) I_{n_k}; the protected factor
        # is the matrix factor, so d_B = m_k and the A-major column of W
        # for |a>(x)|b> is the Q column with inner index b * n_k + a.
        w = q_k.reshape(ch.dim, m_k, n_k).transpose(0, 2, 1).reshape(ch.dim, -1)
        try:
            dec = SubsystemDecomposition(ch.dim, n_k, m_k, w, tol=tol)
        except DimensionMismatch as exc:
            # Q passed at acceptance_tol; W is judged at strict_tol
            raise UnluckySeed(f"emitted block (m={m_k}, n={n_k}): {exc}") from exc
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
