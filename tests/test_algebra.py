import numpy as np
import pytest

from subrec import (
    DemoSpec,
    KrausChannel,
    NotAnAlgebra,
    NotFinite,
    NotUnital,
    UnluckySeed,
    algebra_structure,
    check_noiseless,
    commutant,
    compose,
    demo_build,
    dual,
    enumerate_noiseless,
    fixed_point_basis,
    noiseless_subsystems,
    to_superoperator,
)
from subrec.linalg import dagger, operator_basis
from subrec.random_ops import haar_unitary, random_unital_channel

from oracles import commutant_dimension


def planted_algebra(pattern, dim, seed):
    """Canonical ⊕_k M_{m_k} (x) I_{n_k} basis conjugated by a Haar unitary."""
    basis = []
    off = 0
    for m, n in pattern:
        for i in range(m):
            for j in range(m):
                x = np.zeros((dim, dim), dtype=complex)
                unit = np.zeros((m, m))
                unit[i, j] = 1.0
                x[off:off + m * n, off:off + m * n] = np.kron(unit, np.eye(n))
                basis.append(x)
        off += m * n
    r = haar_unitary(dim, seed)
    return [r @ x @ dagger(r) for x in basis]


def test_commutant_of_nothing_is_everything():
    assert len(commutant([], dim=3)) == 9
    assert len(commutant([np.eye(3)])) == 9


def test_commutant_of_zz():
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex)
    basis = commutant([zz])
    assert len(basis) == 8
    assert commutant_dimension([zz], 4) == 8  # brute-force oracle
    # closed under adjoints and products within the span
    span = np.column_stack([x.flatten() for x in basis])
    proj = span @ np.linalg.pinv(span)
    for x in basis:
        for y in (dagger(x), x @ basis[0]):
            v = y.flatten()
            assert np.linalg.norm(v - proj @ v) < 1e-8


def test_commutant_of_generic_unitary_is_diagonal():
    thetas = np.array([0.3, 1.2, 2.5, 4.0])
    basis_change = haar_unitary(4, seed=5)
    u = basis_change @ np.diag(np.exp(1j * thetas)) @ dagger(basis_change)
    assert len(commutant([u])) == 4


def test_structure_full_matrix_algebra():
    basis = [x.astype(complex) for x in operator_basis(3)]
    st = algebra_structure(basis, seed=0)
    assert st.blocks == [(3, 1)]
    assert st.residual < 1e-9


@pytest.mark.parametrize("pattern,dim", [
    ([(2, 2)], 4),
    ([(2, 1), (2, 1)], 4),
    ([(3, 2), (1, 4), (2, 1)], 12),
    ([(2, 3), (3, 1)], 11),   # padded: algebra unit is a proper projector
])
def test_structure_roundtrip(pattern, dim):
    basis = planted_algebra(pattern, dim, seed=dim)
    st = algebra_structure(basis, seed=3)
    assert sorted(st.blocks) == sorted(pattern)
    assert st.residual < 1e-9
    assert np.linalg.norm(dagger(st.q) @ st.q - np.eye(dim)) < 1e-9


def test_structure_of_zz_commutant_blocks():
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex)
    st = algebra_structure(commutant([zz]), seed=1)
    assert sorted(st.blocks) == [(2, 1), (2, 1)]
    # blocks supported on span{|00>,|11>} and span{|01>,|10>}
    supports = []
    for (m, n), off in zip(st.blocks, st.offsets):
        cols = st.q[:, off:off + m * n]
        supports.append(frozenset(np.flatnonzero(
            np.abs(cols).sum(axis=1) > 1e-8).tolist()))
    assert set(supports) == {frozenset({0, 3}), frozenset({1, 2})}


def test_not_an_algebra():
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    with pytest.raises(NotAnAlgebra):
        algebra_structure([e01], seed=0)


def test_zero_basis_is_not_an_algebra():
    # the support has rank 0, so there is no unit projector to decompose
    with pytest.raises(NotAnAlgebra, match="only the zero matrix"):
        algebra_structure([np.zeros((2, 2))], seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_basis_raises_not_finite(bad):
    # judged before the support SVD, which would not converge on a NaN
    x = np.eye(2, dtype=complex)
    x[0, 1] = bad
    with pytest.raises(NotFinite):
        algebra_structure([np.eye(2), x], seed=0)


def test_noiseless_identity_channel_is_full_space():
    ch = KrausChannel([np.eye(4)])
    found = enumerate_noiseless(ch, seed=0)
    assert found.structure.blocks == [(4, 1)]
    assert len(found.subsystems) == 1
    dec = found.subsystems[0]
    assert dec.d_b == 4 and dec.d_a == 1
    assert np.linalg.norm(dec.p_ab - np.eye(4)) < 1e-9


def test_noiseless_requires_unital():
    damp = KrausChannel([np.array([[1.0, 0.0], [0.0, 0.6]]),
                         np.array([[0.0, 0.8], [0.0, 0.0]])])
    assert not damp.is_unital
    with pytest.raises(NotUnital):
        noiseless_subsystems(damp)


def test_phase_flip_composition_noiseless_subsystems():
    ch, _ = demo_build(DemoSpec(name="phase-flip", p=0.3))
    comp = compose(dual(ch), ch)
    found = enumerate_noiseless(comp, seed=0)
    assert sorted(found.structure.blocks) == [(2, 1), (2, 1)]
    assert len(found.subsystems) == 2
    spans = set()
    for dec in found.subsystems:
        assert check_noiseless(comp, dec).ok
        diag = np.round(np.diagonal(dec.p_ab).real).astype(int)
        spans.add(tuple(diag))
    assert spans == {(1, 0, 0, 1), (0, 1, 1, 0)}


def test_binary_unitary_composition_has_only_classical_sectors():
    ch, _ = demo_build(DemoSpec(name="binary-unitary", p=0.5, seed=2))
    comp = compose(dual(ch), ch)
    found = enumerate_noiseless(comp, seed=0)
    assert len(found.subsystems) == 0
    assert found.structure.blocks == [(1, 1)] * 4


def test_swap_composition_full_space_noiseless():
    sw, _ = demo_build(DemoSpec(name="swap"))
    comp = compose(dual(sw), sw)
    found = enumerate_noiseless(comp, seed=0)
    assert found.structure.blocks == [(4, 1)]


@pytest.mark.parametrize("seed", range(3))
def test_fixed_point_set_is_dagger_and_product_closed(seed):
    rng = np.random.default_rng(60 + seed)
    ch = random_unital_channel(4, 3, rng)
    comp = compose(dual(ch), ch)
    basis = fixed_point_basis(to_superoperator(comp))
    span = np.column_stack([x.flatten() for x in basis])
    proj = span @ np.linalg.pinv(span)
    for _ in range(5):
        i, j = rng.integers(0, len(basis), size=2)
        for y in (dagger(basis[i]), basis[i] @ basis[j]):
            v = y.flatten()
            assert np.linalg.norm(v - proj @ v) < 1e-7


UNITAL_PATTERNS = [([(2, 2)], 4), ([(2, 1), (2, 1)], 4), ([(3, 2), (1, 4), (2, 1)], 12)]


def random_hermitian(mats, rng):
    z = sum((rng.normal() + 1j * rng.normal()) * m for m in mats)
    return (z + dagger(z)) / 2


@pytest.mark.parametrize("pattern,dim", UNITAL_PATTERNS)
def test_two_generators_give_commutant_and_center(pattern, dim):
    basis = planted_algebra(pattern, dim, seed=dim)
    rng = np.random.default_rng(dim)
    y, g = random_hermitian(basis, rng), random_hermitian(basis, rng)
    cprime = commutant([y, g])
    assert len(cprime) == sum(n * n for _, n in pattern)
    assert len(cprime) == commutant_dimension(basis, dim)  # brute-force oracle
    c1, c2 = random_hermitian(cprime, rng), random_hermitian(cprime, rng)
    assert len(commutant([y, g, c1, c2])) == len(pattern)


@pytest.mark.parametrize("pattern,dim", UNITAL_PATTERNS)
def test_structure_of_non_orthonormal_spanning_set(pattern, dim):
    basis = planted_algebra(pattern, dim, seed=dim)
    stack = np.column_stack([x.flatten() for x in basis])
    u, _, _ = np.linalg.svd(stack, full_matrices=False)
    orthonormal = [u[:, i].reshape(dim, dim) for i in range(u.shape[1])]
    rng = np.random.default_rng(dim)
    mix = rng.normal(size=(len(basis), len(basis) + 2)) \
        + 1j * rng.normal(size=(len(basis), len(basis) + 2))
    # two more elements than the dimension, none orthogonal to another
    spanning = [sum(c * x for c, x in zip(col, basis)) for col in mix.T]
    blocks = sorted(algebra_structure(orthonormal, seed=3).blocks)
    st = algebra_structure(spanning, seed=3)
    assert sorted(st.blocks) == blocks == sorted(pattern)
    assert st.residual < 1e-9


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.mark.parametrize("basis,message", [
    ([np.eye(2), PAULI_X, PAULI_Z], "inside the block algebra"),
    ([np.eye(4), np.kron(PAULI_X, np.eye(2)), np.kron(PAULI_Z, np.eye(2)),
      np.kron(np.eye(2), PAULI_Z)], "inside the block algebra"),
    # y and g generate all of M_4 here, of dimension 16 > 5
    ([np.eye(4), np.kron(PAULI_X, np.eye(2)), np.kron(PAULI_Z, np.eye(2)),
      np.kron(np.eye(2), PAULI_X), np.kron(np.eye(2), PAULI_Z)], "span is not closed"),
])
def test_span_with_unit_and_adjoints_but_not_products(basis, message):
    # XZ = -iY lies outside each span, so none is an algebra
    with pytest.raises(NotAnAlgebra, match=message):
        algebra_structure(basis, seed=0)


def test_unlucky_seed_lists_every_retry(monkeypatch):
    import subrec.algebra as algebra

    def always_retry(draw, fit, support, rng, length, tol):
        raise algebra._RetryProbe(f"draw {rng.integers(1000)}")

    monkeypatch.setattr(algebra, "_structure_attempt", always_retry)
    with pytest.raises(UnluckySeed) as info:
        algebra_structure(planted_algebra([(2, 1)], 2, seed=0), seed=7)
    for seed in range(7, 12):
        reason = f"draw {np.random.default_rng(seed).integers(1000)}"
        assert f"seed {seed}: {reason}" in str(info.value)
