import numpy as np
import pytest

from subrec import (
    DimensionMismatch,
    FactorMismatch,
    LengthMismatch,
    NotHermitian,
    NotPartialIsometry,
    complete_to_unitary,
    dagger,
    hermitian_eig,
    majorizes,
    numeric_rank,
    partial_trace_b,
    polar_isometry_on_support,
)
from subrec.linalg import _index_ordered_basis, complete_isometry, orthonormal_complement
from subrec.random_ops import haar_isometry, haar_unitary, random_hermitian, random_projector

from oracles import birkhoff_bistochastic, prefix_majorizes


def test_hermitian_eig_identity():
    spec, q = hermitian_eig(np.eye(2))
    assert np.allclose(spec, [1.0, 1.0])
    assert np.linalg.norm(dagger(q) @ q - np.eye(2)) < 1e-12


def test_hermitian_eig_pauli_z():
    spec, _ = hermitian_eig(np.diag([1.0, -1.0]))
    assert np.allclose(spec, [1.0, -1.0])


@pytest.mark.parametrize("dim", [2, 8, 33, 64])
def test_hermitian_eig_reconstruction(dim):
    h = random_hermitian(dim, seed=dim)
    spec, q = hermitian_eig(h)
    assert np.all(np.diff(spec) <= 1e-12)
    recon = q @ np.diag(spec) @ dagger(q)
    assert np.linalg.norm(recon - h) < 1e-10 * np.linalg.norm(h)
    assert np.linalg.norm(dagger(q) @ q - np.eye(dim)) < 1e-10


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_rejects_nan():
    m = np.eye(3)
    m[1, 2] = np.nan
    with pytest.raises(NotHermitian):
        hermitian_eig(m)


def test_polar_identity():
    v = polar_isometry_on_support(np.eye(3), np.eye(3))
    assert np.linalg.norm(v - np.eye(3)) < 1e-12


def test_polar_rank_one():
    g = np.zeros((2, 2), dtype=complex)
    g[0, 1] = 2.0
    s = np.zeros((2, 2), dtype=complex)
    s[1, 1] = 2.0
    v = polar_isometry_on_support(g, s)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 1] = 1.0
    assert np.linalg.norm(v - expected) < 1e-12


@pytest.mark.parametrize("seed,dim,rank", [(0, 4, 2), (1, 6, 4), (2, 5, 5)])
def test_polar_construct_then_recover(seed, dim, rank):
    rng = np.random.default_rng(seed)
    u = haar_unitary(dim, rng)
    # positive factor supported on the first `rank` directions of u
    eigs = np.zeros(dim)
    eigs[:rank] = rng.uniform(0.5, 2.0, size=rank)
    s0 = u @ np.diag(eigs) @ dagger(u)
    v0 = haar_unitary(dim, rng) @ u @ np.diag((eigs > 0).astype(float)) @ dagger(u)
    g = v0 @ s0
    v = polar_isometry_on_support(g, s0)
    assert np.linalg.norm(v @ s0 - g) < 1e-10
    proj = dagger(v) @ v
    assert np.linalg.norm(proj @ proj - proj) < 1e-10
    assert numeric_rank(proj, 1e-9) == rank


def test_polar_factor_mismatch():
    with pytest.raises(FactorMismatch):
        polar_isometry_on_support(np.eye(2), 2 * np.eye(2))


def test_polar_rejects_nan():
    g = np.eye(3, dtype=complex)
    g[0, 1] = np.nan
    with pytest.raises(FactorMismatch):
        polar_isometry_on_support(g, np.eye(3))


def test_complete_identity():
    assert np.linalg.norm(complete_to_unitary(np.eye(3), 3) - np.eye(3)) < 1e-12


def test_complete_rank_one_is_forced():
    v = np.zeros((2, 2), dtype=complex)
    v[0, 0] = 1.0
    # the index-ordered completion must pair |1> with |1>
    assert np.linalg.norm(complete_to_unitary(v, 2) - np.eye(2)) < 1e-12


@pytest.mark.parametrize("seed,dim,rank", [(3, 5, 2), (4, 8, 5), (5, 6, 1)])
def test_complete_random_partial_isometry(seed, dim, rank):
    rng = np.random.default_rng(seed)
    dom = haar_isometry(dim, rank, rng)
    ran = haar_isometry(dim, rank, rng)
    v = ran @ dagger(dom)
    u = complete_to_unitary(v, dim)
    assert np.linalg.norm(dagger(u) @ u - np.eye(dim)) < 1e-10
    # agrees with v on the initial support
    assert np.linalg.norm(u @ dom - v @ dom) < 1e-10


def test_complete_rejects_non_isometry():
    with pytest.raises(NotPartialIsometry):
        complete_to_unitary(2 * np.eye(2), 2)


def test_complete_rejects_nan():
    v = np.eye(3, dtype=complex)
    v[2, 0] = np.nan
    with pytest.raises(NotPartialIsometry):
        complete_to_unitary(v, 3)


def test_partial_trace_of_identity_factor():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.linalg.norm(partial_trace_b(np.kron(x, np.eye(2)), 3, 2) - 2 * x) < 1e-12
    sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    out = partial_trace_b(np.kron(np.eye(3), sigma), 3, 2)
    assert np.linalg.norm(out - np.trace(sigma) * np.eye(3)) < 1e-12


def test_partial_trace_product_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = np.kron(a, b)
    # direct-sum loop oracle
    expected = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            for k in range(4):
                expected[i, j] += m[i * 4 + k, j * 4 + k]
    got = partial_trace_b(m, 3, 4)
    assert np.linalg.norm(got - expected) < 1e-12
    assert np.linalg.norm(got - np.trace(b) * a) < 1e-12


def test_partial_trace_dimension_check():
    with pytest.raises(DimensionMismatch):
        partial_trace_b(np.eye(5), 2, 2)


def test_majorizes_basics():
    assert majorizes(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert not majorizes(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    with pytest.raises(LengthMismatch):
        majorizes(np.array([1.0]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("seed", range(8))
def test_majorizes_hardy_littlewood_polya(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    q = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    lam = birkhoff_bistochastic(n, 4, rng)
    p = np.sort(lam @ q)[::-1]
    assert majorizes(q, p)
    assert prefix_majorizes(q, p)


@pytest.mark.parametrize("seed", range(5))
def test_majorizes_reflexive_transitive(seed):
    rng = np.random.default_rng(100 + seed)
    n = 5
    q = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    p = np.sort(birkhoff_bistochastic(n, 3, rng) @ q)[::-1]
    r = np.sort(birkhoff_bistochastic(n, 3, rng) @ p)[::-1]
    assert majorizes(q, q)
    assert majorizes(q, p) and majorizes(p, r)
    assert majorizes(q, r)


def test_numeric_rank():
    assert numeric_rank(np.eye(4), 1e-9) == 4
    assert numeric_rank(np.diag([1.0, 0.0]), 1e-9) == 1
    assert numeric_rank(np.zeros((3, 3)), 1e-9) == 0


def test_numeric_rank_embedded_projector():
    w = haar_isometry(8, 4, seed=11)
    p = w @ dagger(w)
    assert abs(np.trace(p).real - 4.0) < 1e-10  # projector trace oracle
    assert numeric_rank(p, 1e-9) == 4


def _mgs_complement(p):
    # plain index-ordered modified Gram-Schmidt over (I - p) e_j
    comp = np.eye(p.shape[0]) - p
    out = []
    for j in range(p.shape[0]):
        v = comp[:, j].astype(complex)
        for u in out:
            v = v - u * np.vdot(u, v)
        if np.linalg.norm(v) > 1e-6:
            out.append(v / np.linalg.norm(v))
    return out


@pytest.mark.parametrize("seed,dim,rank", [(20, 5, 1), (21, 8, 3), (22, 16, 7),
                                           (23, 33, 30), (24, 6, 0), (25, 6, 6)])
def test_orthonormal_complement_matches_mgs_loop(seed, dim, rank):
    if rank == 0:
        p = np.zeros((dim, dim))
    elif rank == dim:
        p = np.eye(dim)
    else:
        p = random_projector(dim, rank, seed=seed)
    got = orthonormal_complement(p)
    expected = _mgs_complement(p)
    assert len(got) == len(expected) == dim - rank
    for u, v in zip(got, expected):
        assert np.max(np.abs(u - v)) < 1e-12


def test_skip_inside_a_block_matches_mgs_loop():
    # range(p) holds (e_2 + e_3) / sqrt(2), so (I - p) e_3 = -(I - p) e_2: the
    # loop skips column 3, inside the first block of d - rank columns, and
    # the block after it starts at column 4
    dim, rank = 12, 4
    lead = np.zeros((dim, 1))
    lead[2:4] = 1 / np.sqrt(2)
    w, _ = np.linalg.qr(np.hstack([lead, haar_isometry(dim, rank - 1, seed=29)]))
    p = w @ dagger(w)
    comp = np.eye(dim) - p
    assert np.linalg.norm(comp[:, 3] + comp[:, 2]) < 1e-12
    got = orthonormal_complement(p)
    expected = _mgs_complement(p)
    assert len(got) == len(expected) == dim - rank
    for u, v in zip(got, expected):
        assert np.max(np.abs(u - v)) < 1e-12


@pytest.mark.parametrize("dim", [4, 10, 40, 64])
def test_dense_skips_match_mgs_loop(dim):
    # W = I (x) (e_0 + e_1) / sqrt(2): every odd column of I - W W^dag repeats
    # the one before it up to sign, so every other column is a skip
    w = np.kron(np.eye(dim // 2), np.ones((2, 1)) / np.sqrt(2))
    u = complete_isometry(w)
    expected = _mgs_complement(w @ dagger(w))
    assert len(expected) == dim // 2
    assert np.max(np.abs(u[:, dim // 2:] - np.column_stack(expected))) < 1e-12


def test_residuals_either_side_of_the_cutoff_match_mgs_loop():
    # column 1 leaves 1.01e-6 e_4 off e_0 (kept), column 2 leaves 0.99e-6 e_5
    # (skipped), column 4 is zero (dropped up front); every other column
    # meets the kept vectors only in entries 0 or 1, so both loops project
    # exactly and round alike
    dim = 8
    comp = np.zeros((dim, dim))
    comp[0, 0] = comp[0, 1] = comp[0, 2] = 1.0
    comp[4, 1], comp[5, 2] = 1.01e-6, 0.99e-6
    comp[1, 3] = 1.0
    comp[[1, 5], 5] = 1.0
    comp[[2, 6], 6] = [1.0, 1e-3]
    comp[[3, 7], 7] = [0.5, 1.0]
    got = _index_ordered_basis(comp, dim, 1e-6)
    expected = _mgs_complement(np.eye(dim) - comp)
    assert got.shape[1] == len(expected) == 6
    assert np.max(np.abs(got - np.column_stack(expected))) < 1e-12
    assert np.max(np.abs(got[:, 1])) == 1.0 and abs(got[4, 1]) == 1.0


@pytest.mark.parametrize("shape", [(3, 4), (10, 12)])
def test_completion_of_more_columns_than_rows_is_not_a_partial_isometry(shape):
    # k > d columns cannot be orthonormal: a typed error, not numpy's
    # "negative dimensions" from a complement of d - k columns
    rng = np.random.default_rng(5)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    with pytest.raises(NotPartialIsometry, match="cannot be orthonormal"):
        complete_isometry(v)


def test_hermitian_eig_of_an_empty_matrix():
    w, q = hermitian_eig(np.zeros((0, 0)))
    assert w.shape == (0,) and q.shape == (0, 0)


def _canonical_loop(w, q):
    # the index-ordered canonicalization, written out: Gram-Schmidt of the
    # standard basis projected onto each eigenvalue cluster, then phases
    d = w.size
    gap = 1e-10 * max(1.0, float(np.abs(w).max()))
    q = q.copy()
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and w[stop - 1] - w[stop] <= gap:
            stop += 1
        proj = q[:, start:stop] @ dagger(q[:, start:stop])
        fresh = _mgs_complement(np.eye(d) - proj)[:stop - start]
        q[:, start:stop] = np.column_stack(fresh)
        start = stop
    for j in range(d):
        pivot = int(np.argmax(np.abs(q[:, j])))
        q[:, j] = q[:, j] * abs(q[pivot, j]) / q[pivot, j]
    return q


@pytest.mark.parametrize("seed,spectrum", [(26, [2, 2, 2, 1, 1, 0, 0, 0]),
                                           (27, [1, 1, 1, 1, 1, 1, -3]),
                                           (28, [0.5] * 4 + [0.0] * 12)])
def test_hermitian_eig_degenerate_clusters_match_loop(seed, spectrum):
    u = haar_unitary(len(spectrum), seed=seed)
    m = u @ np.diag(spectrum).astype(complex) @ dagger(u)
    w, q = hermitian_eig(m)
    raw_w, raw_q = np.linalg.eigh((m + dagger(m)) / 2.0)
    order = np.argsort(-raw_w, kind="stable")
    expected = _canonical_loop(raw_w[order], raw_q[:, order])
    assert np.max(np.abs(q - expected)) < 1e-12
    assert np.linalg.norm(q @ np.diag(w) @ dagger(q) - m) < 1e-12
