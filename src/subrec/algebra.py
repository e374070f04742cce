"""Structure theory for the fixed-point dagger-algebra of a unital channel.

The fixed-point set of a unital trace-preserving channel E is a
dagger-closed algebra, hence unitarily equivalent to a direct sum
``⊕_k M_{m_k} (x) I_{n_k}`` (plus a zero summand on the complement of
its unit).  It is the commutant of the interaction algebra: for Kraus
operators {K}, Fix = {K, K^dag}' (Kribs, Proc. Edinburgh Math. Soc. 46
(2003) 421), with K = E_a for ``enumerate_noiseless`` and K = E_b^dag E_a
for ``find_ucc`` (Fix(E^dag ∘ E); Holbrook, Kribs & Laflamme, Quantum
Inf. Process. 2 (2003) 381).  This module reads the block decomposition
of the algebra A that the K generate off two generic Hermitian elements
y, g of their span, and takes Fix = A' from it.  Neither a basis of the
fixed-point set nor any d^2 x d^2 matrix is formed:

* y and g are the Hermitian parts of random combinations Σ_a c_a E_a
  (no product) or Σ_b E_b^dag (Σ_a c_ab E_a) (m products of d x d), or,
  on a retry, of words of such combinations;
* the eigenvalues of y fall into clusters, one per eigenvalue of the
  matrix factor of its summand and each as large as the summand's
  multiplicity.  Two clusters lie in one central summand exactly
  when a path of nonzero blocks of g, written in the eigenbasis of y,
  links them (eigenspace connectivity; Murota, Kanno, Kojima & Kojima,
  Japan J. Indust. Appl. Math. 27 (2010)), so the summands are the
  connected components of that graph;
* inside each summand, g supplies the intertwiners that align the
  multiplicity spaces into an explicit tensor basis.

Every output is certified.  For a spanning set (``algebra_structure``)
y and g are drawn on the joint range of the elements and their adjoints,
each input element must fit their block pattern P, and the span must
have dimension Σ m_k^2 = dim P; a non-finite entry (NotFinite) and a
joint range of rank 0 (NotAnAlgebra) are refused before any draw.  The
span then is P, a dagger-algebra that holds its unit, so adjoint
closure, the unit and product closure follow with no check of their own.  For a channel every generator K
must fit the pattern P = ⊕ M_μ (x) I_ν of y and g: then A lies in P,
which y, g ∈ A generate, so A = P and Fix = P' = ⊕ I_μ (x) M_ν, every
central projector of P included.  The m^2 products E_b^dag E_a are
fitted one Kraus row b at a time, as (E_b Q)^dag (E_a Q) for a >= b (an
adjoint fits with the same residual).  ``enumerate_noiseless`` also
runs ``check_noiseless`` on every emitted block (so the block algebra
lies in Fix(E)); ``find_ucc`` certifies each block by correctability and
a verified correction for E instead, which by the paper's theorem is the
same property.  The fit of the products is already that correctability
test, block by block: block k of (E_a Q)^dag (E_b Q) is
W_k^dag E_a^dag E_b W_k = F_ab (x) I + Δ_ab (Holbrook, Kribs & Laflamme),
so the fit that certifies the structure also hands back, for each block
with a multiplicity above 1, the F_ab, the remainder norms ||Δ_ab||_F
and the stack E_a W_k, and ``find_ucc`` judges those.  Degenerate draws
are retried on derived seeds, each from longer words of span elements (a
span can be more degenerate than the algebra it generates), before
surfacing UnluckySeed.  Noiseless
subsystems of the channel are read off the blocks of Fix with m_k > 1.

``commutant`` here, and ``fixed_point_basis`` and ``to_superoperator``
in :mod:`subrec.channel`, are dense (d^2-sized) references: no discovery
path calls them, and they stay public for tests, the benchmark tracer
and the demos, which look them up by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel
from .correctability import check_noiseless
from .errors import (DimensionMismatch, NotAnAlgebra, NotFinite, NotPartialIsometry,
                     NotTracePreserving, NotUnital, UnluckySeed)
from .linalg import (DEFAULT_TOL, acceptance_tol, cluster_gap, complete_isometry, dagger,
                     eigenvalue_clusters, frobenius, strict_tol, vec)
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
    over the check elements: the input basis, or for a fixed-point
    algebra every generator of the interaction algebra A, fitted to the
    pattern of A = Fix'.  ``seed_used`` is the probing seed that produced
    the certified output.
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


class _RetryProbe(Exception):
    """Internal: the random draw was degenerate, try the next seed."""


def _draw_from_span(mats, rng):
    """A random combination Σ_a c_a X_a of ``mats``."""
    return sum((rng.normal() + 1j * rng.normal()) * x for x in mats)


def _draw_from_products(ops, rng):
    """A random Σ_b E_b^dag (Σ_a c_ab E_a), an element of
    span{E_b^dag E_a} at m products of d x d."""
    m, d, _ = ops.shape
    c = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return dagger(ops.reshape(m * d, d)) @ np.tensordot(c, ops, axes=1).reshape(m * d, d)


def _draw_words(draw, rng, length):
    """y, g: Hermitian parts of two random elements of the algebra, each
    s_1 + s_2 (s_3 + s_4 (...)) over words of up to ``length`` draws
    s_i = draw(rng) from the generating span.

    Words of length 1 are the span itself, enough for a generic channel.
    A span can be more degenerate than the algebra it generates: every
    Hermitian element of span{X (x) I, Y (x) I, Z (x) X} squares to a
    multiple of I, so y and g have doubled eigenvalues and generate only
    M_2 (x) I_2, which the generators do not fit.  Products of
    independent draws leave that span, and each retry lengthens the words.
    """
    pair = []
    for _ in range(2):
        z = draw(rng)
        for _ in range(length - 1):
            z = draw(rng) + draw(rng) @ z
        pair.append((z + dagger(z)) / 2.0)
    return pair


def _fit_congruence(mats, q, blocks, offsets):
    """Worst pattern residual of q^dag X q over the stacked ``mats``, with
    no by-products."""
    return _pattern_residual(dagger(q) @ mats @ q, blocks, offsets), None


def _fit_products(ops, q, blocks, offsets):
    """Worst pattern residual of the m^2 products E_b^dag E_a, taken as
    (E_b q)^dag (E_a q) one Kraus row b at a time for a >= b: m + m(m+1)/2
    products of d x d, about 2m d^2 entries live.  E_a^dag E_b, the
    adjoint, has the same residual.

    Block k of (E_a q)^dag (E_b q) is (E_a W_k)^dag (E_b W_k) for W_k the
    block's columns of q, the compressed pair of ``check_correctable``, and
    the fit splits it into F_ab (x) I_{n_k} and a remainder Δ_ab.  So the
    by-products are, for each block with n_k > 1 in order, the pair data of
    that check: the stack E_a W_k (a view into E_a q, m x d x m_k n_k), the
    m x m x m_k x m_k array of F_ab and the m x m remainder norms
    r_ab = ||Δ_ab||_F, the pairs with a < b taken as adjoints."""
    z = ops @ q
    m = len(z)
    kept = [(off, m_k, n_k) for (m_k, n_k), off in zip(blocks, offsets) if n_k > 1]
    f_blocks = [np.empty((m, m, m_k, m_k), dtype=complex) for _, m_k, _ in kept]
    residuals = [np.empty((m, m)) for _ in kept]
    worst = []
    for b in range(m):
        parts = []
        worst.append(_pattern_residual(dagger(z[b]) @ z[b:], blocks, offsets, parts))
        for f_k, r_k, (x_k, r_bk) in zip(f_blocks, residuals, parts):
            f_k[b, b:] = x_k
            f_k[b + 1:, b] = x_k[1:].conj().transpose(0, 2, 1)
            r_k[b, b:] = r_k[b:, b] = r_bk
    fitted = [(z[:, :, off:off + m_k * n_k], f_k, r_k)
              for (off, m_k, n_k), f_k, r_k in zip(kept, f_blocks, residuals)]
    return float(np.max(worst)), fitted  # a NaN stays NaN


def _eigenspace_blocks(y, g, tol):
    """Blocks (m_k, n_k) and tensor-basis columns of the algebra that the
    generic Hermitian y, g generate.

    Clusters of eigenvalues of y closer than ``cluster_gap(tol)``
    (relative) are one eigenvalue of a matrix factor; the summands are the
    connected components of the clusters linked by a block of g, in the
    eigenbasis of y, of norm above ``cluster_gap(tol) ||g||``.  The
    eigenvectors of the first cluster of a summand are its reference
    frame.  When the clusters have more than one dimension, each other
    member's link to the first cluster must be a scaled unitary within
    ``cluster_gap(tol)``, and it carries the frame over.  Cost: one
    ``eigh`` and one d x d congruence.
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
            if c == members[0] or n_k == 1:  # the reference frame, or nothing to align
                cols.append(vy[:, rows])
                continue
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


def _structure_attempt(draw, fit, support, rng, length, tol):
    """One probe: draw y, g from words of up to ``length`` elements of the
    span, read the blocks off them, assemble the basis change and fit
    every check element to the block pattern."""
    y, g = _draw_words(draw, rng, length)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(g))):
        raise NotFinite("a random element of the generating span has a non-finite entry")
    blocks, cols = _eigenspace_blocks(y, g, tol)
    try:
        q = complete_isometry(cols if support is None else support @ cols, tol)
    except NotPartialIsometry:
        raise _RetryProbe("assembled basis change lost orthonormality") from None

    offsets = np.cumsum([0] + [m * n for m, n in blocks])[:-1].tolist()
    residual, fitted = fit(q, blocks, offsets)
    if not residual <= acceptance_tol(tol):
        raise _RetryProbe(f"pattern residual {residual:.3e}")
    return blocks, q, offsets, residual, fitted


def _pattern_residual(t, blocks, offsets, parts=None):
    """Worst ||T - model|| / max(1, ||T||) over the stacked T, model the
    pattern ⊕ X_k (x) I_{n_k} (zero off the blocks) with X_k the scaled
    partial trace of T's block; T is overwritten by T - model.  A list
    ``parts`` receives, for each block with n_k > 1 in order, X_k and the
    norms of that block of T - model, both stacked as T."""
    scale = np.maximum(1.0, _norms(t))
    for (m_k, n_k), off in zip(blocks, offsets):
        blk = t[:, off:off + m_k * n_k, off:off + m_k * n_k]
        factored = blk.reshape(-1, m_k, n_k, m_k, n_k)
        x_k = np.einsum("gikjk->gij", factored) / n_k
        # X_k (x) I_{n_k} is X_k on the diagonal of the I_{n_k} index, zero off it
        diagonal = np.arange(n_k)
        factored[:, :, diagonal, :, diagonal] -= x_k
        if parts is not None and n_k > 1:
            parts.append((x_k, _norms(blk)))
    return float(np.max(_norms(t) / scale))  # a NaN stays NaN


def _norms(t):
    """Frobenius norms of the stacked ``t``: one pass over its real view."""
    flat = t.view(float)
    return np.sqrt(np.einsum("gij,gij->g", flat, flat))


def _probe(draw, fit, support, seed, tol, what):
    """The retry loop of every caller: the certified structure of the first
    seed whose probe fits, with the by-products of that seed's fit, or
    UnluckySeed (``what`` probing failed) listing each seed's reason.
    Attempt i draws from words of up to i + 1 elements of the span (see
    :func:`_draw_words`)."""
    reasons = []
    for attempt in range(_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        try:
            blocks, q, offsets, residual, fitted = _structure_attempt(draw, fit, support, rng,
                                                                      attempt + 1, tol)
        except _RetryProbe as exc:
            reasons.append(f"seed {seed + attempt}: {exc}")
            continue
        return AlgebraStructure(blocks, q, offsets, residual, seed + attempt), fitted
    raise UnluckySeed(f"{what} probing failed after {_ATTEMPTS} seeds: {'; '.join(reasons)}")


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
    NotFinite
        If a basis element has a NaN or infinite entry.
    NotAnAlgebra
        If the basis is empty or spans only the zero matrix, or its span
        is smaller than the block algebra ⊕ M_{m_k} (x) I_{n_k} that
        every element fits: then the span misses an adjoint, a product or
        the unit of that algebra.
    UnluckySeed
        If probing stayed degenerate for five consecutive seeds, among
        them any span that fits no block pattern two of its random
        elements show.
    """
    basis = [np.asarray(x, dtype=complex) for x in basis]
    if not basis:
        raise NotAnAlgebra("empty basis")
    if not all(np.all(np.isfinite(x)) for x in basis):
        raise NotFinite("algebra basis has a non-finite entry")
    # the unit of the algebra that the basis generates projects onto the
    # ranges of its elements and of their adjoints
    support = _orthonormal_range(np.hstack(basis + [dagger(x) for x in basis]), tol)
    if not support.shape[1]:
        raise NotAnAlgebra("basis spans only the zero matrix, which has no unit projector "
                           "to decompose")
    cbasis = [dagger(support) @ x @ support for x in basis]
    structure, _ = _probe(functools.partial(_draw_from_span, cbasis),
                          functools.partial(_fit_congruence, np.asarray(basis)),
                          support, seed, tol, "algebra")
    # the basis lies in the pattern P = ⊕ M_{m_k} (x) I_{n_k}; spanning all of
    # it means the span is P, a dagger-algebra that holds its unit
    dim = _orthonormal_range(np.column_stack([vec(x) for x in basis]), tol).shape[1]
    if dim != sum(m * m for m, _ in structure.blocks):
        raise NotAnAlgebra(f"basis span is not closed under adjoints or products: "
                           f"dimension {dim} inside the block algebra of {structure.blocks}")
    return structure


def _require_unital_tp(ch: KrausChannel, what: str) -> None:
    """Fix = {K, K^dag}' needs a unital and trace-preserving channel."""
    if not ch.is_unital:
        raise NotUnital(f"{what} requires a unital channel")
    if not ch.is_trace_preserving:
        raise NotTracePreserving(
            f"{what} reads the fixed points off the interaction algebra, which needs "
            f"a trace-preserving channel; sum E_a^dag E_a differs from identity by "
            f"{ch.tp_defect:.3e}")


def _noiseless_blocks(ch: KrausChannel, draw, fit, seed: int, tol: float):
    """The probe and emission of :func:`enumerate_noiseless` (Fix(E)) and
    of ``find_ucc`` (Fix(E^dag ∘ E)), whose generators ``draw(ops, rng)``
    samples from and ``fit(ops, q, blocks, offsets)`` checks against a
    pattern, ``ops`` being the stacked Kraus operators.

    Returns the certified structure of Fix: every generator fits the
    pattern ⊕ M_μ (x) I_ν of the interaction algebra, whose blocks become
    the blocks (m, n) = (ν, μ) of Fix, with ``q`` permuted inside each
    block so that Fix acts as X (x) I_n.  For each block with ν > 1 it
    also returns the subsystem decomposition with d_A = μ and d_B = ν,
    whose W (the block's columns of the interaction algebra's basis
    change, A-major as they stand) passes the ``strict_tol`` isometry
    check.  Third, the by-products of the fit that certified the
    structure, as ``fit`` returned them.
    """
    ops = np.asarray(ch.kraus)
    found, fitted = _probe(functools.partial(draw, ops), functools.partial(fit, ops), None,
                           seed, tol, "interaction-algebra")

    dim = ch.dim
    blocks, cols, subsystems = [], [], []
    for (mu, nu), off in zip(found.blocks, found.offsets):
        w = found.q[:, off:off + mu * nu]
        blocks.append((nu, mu))
        cols.append(w.reshape(dim, mu, nu).transpose(0, 2, 1).reshape(dim, -1))
        if nu <= 1:
            continue
        try:
            subsystems.append(SubsystemDecomposition(dim, mu, nu, w, tol=tol))
        except DimensionMismatch as exc:
            # Q passed at acceptance_tol; W is judged at strict_tol
            raise UnluckySeed(f"emitted block (m={nu}, n={mu}): {exc}") from exc
    structure = AlgebraStructure(blocks, np.hstack(cols), found.offsets, found.residual,
                                 found.seed_used)
    return structure, subsystems, fitted


def enumerate_noiseless(ch: KrausChannel, seed: int = 0,
                        tol: float = DEFAULT_TOL) -> NoiselessSubsystems:
    """Noiseless subsystems of a unital channel from its fixed-point algebra.

    Fix(E) is the commutant of the algebra that the Kraus operators
    generate.  Reads that algebra's block structure off two random
    Hermitian elements of span{E_a, E_a^dag} (on a retry, of words of its
    elements), fits every E_a to it, and for each block of Fix with
    m_k > 1 emits the maximal subsystem decomposition with d_B = m_k and
    d_A = n_k, read off the columns of the basis-change unitary.  Every
    emitted decomposition must pass
    :func:`~subrec.correctability.check_noiseless`.

    Raises
    ------
    NotUnital, NotTracePreserving
        If the channel is not unital, or not trace preserving (checked
        up front: Fix(E) = {E_a, E_a^dag}' needs both).
    NotFinite
        If a random element of the span has a non-finite entry.
    UnluckySeed
        If probing stayed degenerate for five consecutive seeds (each
        seed listed with its reason), an emitted W is not an isometry at
        ``strict_tol``, or a certificate failed.
    """
    _require_unital_tp(ch, "noiseless-subsystem enumeration")
    structure, candidates, _ = _noiseless_blocks(ch, _draw_from_span, _fit_congruence, seed,
                                                 tol)
    residuals = []
    for dec in candidates:
        verdict = check_noiseless(ch, dec, tol=tol)
        if not verdict.ok:
            raise UnluckySeed(
                f"emitted block (m={dec.d_b}, n={dec.d_a}) failed the noiseless check "
                f"(residual {verdict.residual:.3e})")
        residuals.append(verdict.residual)
    return NoiselessSubsystems(structure=structure, subsystems=candidates,
                               residuals=residuals)


def noiseless_subsystems(ch: KrausChannel, seed: int = 0,
                         tol: float = DEFAULT_TOL) -> list[SubsystemDecomposition]:
    """The maximal noiseless subsystems of a unital channel."""
    return enumerate_noiseless(ch, seed=seed, tol=tol).subsystems
