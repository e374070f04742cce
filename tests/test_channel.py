import json
import tracemalloc

import numpy as np
import pytest

from subrec import (
    DemoSpec,
    DimensionMismatch,
    KrausChannel,
    NotFinite,
    NotTracePreserving,
    NotUnital,
    channels_equal,
    check_correctable,
    compose,
    construct_recovery,
    demo_build,
    dual,
    enumerate_noiseless,
    find_ucc,
    fixed_point_basis,
    planted_channel,
    recovery_to_correction,
    to_superoperator,
    verify_correction,
)
from subrec.demos import DEMO_NAMES
from subrec.io import canonical_dumps, channel_from_json, channel_to_json
from subrec.linalg import dagger, frobenius, operator_basis, vec
from subrec.random_ops import (
    haar_unitary,
    random_channel,
    random_density,
    random_projector,
    random_unital_channel,
)

from oracles import commutant_dimension, fixed_space_dimension, prefix_majorizes, relative_rank


def phase_flip(p=0.3):
    ch, _ = demo_build(DemoSpec(name="phase-flip", p=p))
    return ch


def test_construction_rejects_non_tp():
    with pytest.raises(NotTracePreserving):
        KrausChannel([np.eye(2) * 0.5])


def test_identity_channel_apply():
    ch = KrausChannel([np.eye(3)])
    sigma = random_density(3, seed=0)
    assert np.linalg.norm(ch.apply(sigma) - sigma) < 1e-12


def test_phase_flip_fixes_00():
    ch = phase_flip(0.3)
    proj = np.zeros((4, 4), dtype=complex)
    proj[0, 0] = 1.0  # |00><00|
    # oracle: Z diagonal fixes computational basis states
    direct = sum(k @ proj @ dagger(k) for k in ch.kraus)
    assert np.linalg.norm(direct - proj) < 1e-14
    assert np.linalg.norm(ch.apply(proj) - proj) < 1e-12


def test_unital_channel_fixes_maximally_mixed():
    ch = random_unital_channel(4, 3, seed=1)
    assert ch.is_unital
    assert np.linalg.norm(ch.apply(np.eye(4) / 4) - np.eye(4) / 4) < 1e-12


def test_dual_of_unitary():
    u = haar_unitary(3, seed=2)
    ch = KrausChannel([u])
    d = dual(ch)
    sigma = random_density(3, seed=3)
    assert np.linalg.norm(d.apply(sigma) - dagger(u) @ sigma @ u) < 1e-12


def test_phase_flip_dual_is_itself():
    ch = phase_flip(0.3)
    assert channels_equal(ch, dual(ch))


@pytest.mark.parametrize("seed", range(4))
def test_duality_trace_pairing(seed):
    rng = np.random.default_rng(seed)
    ch = random_unital_channel(4, 3, rng)
    d = dual(ch)
    for _ in range(20):
        sigma = random_density(4, rng)
        tau = random_density(4, rng)
        lhs = np.trace(d.apply(sigma) @ tau)
        rhs = np.trace(sigma @ ch.apply(tau))
        assert abs(lhs - rhs) < 1e-10


def test_compose_with_identity():
    ch = random_channel(4, 3, seed=4)
    ident = KrausChannel([np.eye(4)])
    assert channels_equal(compose(ch, ident), ch)
    assert channels_equal(compose(ident, ch), ch)


def test_swap_composed_with_itself_is_identity():
    sw, _ = demo_build(DemoSpec(name="swap"))
    assert channels_equal(compose(sw, sw), KrausChannel([np.eye(4)]))


def test_phase_flip_dual_compose_fixed_points():
    p = 0.3
    ch = phase_flip(p)
    comp = compose(dual(ch), ch)
    # the four Kraus products remix to {a I, b Z1 Z2}
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex)
    remixed = KrausChannel([np.sqrt(p * p + (1 - p) ** 2) * np.eye(4),
                            np.sqrt(2 * p * (1 - p)) * zz])
    assert channels_equal(comp, remixed)
    basis = fixed_point_basis(to_superoperator(comp))
    # fixed-point set = commutant of Z1 Z2, dimension 8
    assert commutant_dimension([zz], 4) == 8
    assert len(basis) == 8
    for x in basis:
        assert np.linalg.norm(comp.apply(x) - x) < 1e-9
        assert np.linalg.norm(zz @ x - x @ zz) < 1e-9


def test_binary_unitary_fixed_points_dim_4():
    ch, _ = demo_build(DemoSpec(name="binary-unitary", p=0.5,
                                thetas=(0.3, 1.2, 2.5, 4.0), seed=0))
    comp = compose(dual(ch), ch)
    sup = to_superoperator(comp)
    assert fixed_space_dimension(sup) == 4
    assert len(fixed_point_basis(sup)) == 4


def test_superoperator_matches_kraus_action():
    ch = random_channel(3, 4, seed=5)
    sup = to_superoperator(ch)
    for x in operator_basis(3):
        lhs = sup @ vec(x)
        assert np.linalg.norm(lhs - vec(ch.apply(x))) < 1e-12


def test_vec_convention():
    rng = np.random.default_rng(6)
    a, x, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    assert np.linalg.norm(vec(a @ x @ b) - np.kron(b.T, a) @ vec(x)) < 1e-12


def test_fixed_points_of_identity_channel():
    ch = KrausChannel([np.eye(3)])
    assert len(fixed_point_basis(to_superoperator(ch))) == 9


@pytest.mark.parametrize("shape", [(5, 5), (4, 9), (9, 4), (9,), (2, 2, 2, 2)])
def test_fixed_point_basis_takes_only_a_square_matrix_of_side_d_squared(shape):
    with pytest.raises(DimensionMismatch):
        fixed_point_basis(np.zeros(shape))


def test_channels_equal_under_kraus_remixing():
    ch = random_channel(3, 2, seed=7)
    u = haar_unitary(2, seed=8)
    remixed = [u[0, 0] * ch.kraus[0] + u[0, 1] * ch.kraus[1],
               u[1, 0] * ch.kraus[0] + u[1, 1] * ch.kraus[1]]
    assert channels_equal(ch, KrausChannel(remixed))


@pytest.mark.parametrize("seed", range(4))
def test_trace_preservation(seed):
    rng = np.random.default_rng(20 + seed)
    ch = random_channel(5, 3, rng)
    sigma = random_density(5, rng)
    assert abs(np.trace(ch.apply(sigma)) - np.trace(sigma)) < 1e-10


def test_unital_duality():
    ch = random_unital_channel(4, 3, seed=9)
    d = dual(ch)
    assert d.is_trace_preserving
    assert d.is_unital


@pytest.mark.parametrize("seed", range(6))
def test_uhlmann_majorization(seed):
    rng = np.random.default_rng(30 + seed)
    ch = random_unital_channel(5, 3, rng)
    sigma = random_density(5, rng)
    q = np.sort(np.linalg.eigvalsh(sigma))[::-1]
    p = np.sort(np.linalg.eigvalsh(ch.apply(sigma)))[::-1]
    assert prefix_majorizes(q, p, tol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_rank_monotonicity_unital(seed):
    rng = np.random.default_rng(40 + seed)
    ch = random_unital_channel(5, 3, rng)
    rank = int(rng.integers(1, 5))
    p = random_projector(5, rank, rng)
    assert relative_rank(ch.apply(p), 1e-9) >= rank


def test_rank_saturation_gives_projector():
    # unitary channels always saturate the rank inequality
    u = haar_unitary(5, seed=10)
    ch = KrausChannel([u])
    p = random_projector(5, 2, seed=11)
    out = ch.apply(p)
    assert relative_rank(out, 1e-9) == 2
    assert np.linalg.norm(out @ out - out) < 1e-10


def test_fixed_point_duality_on_projectors():
    ch = phase_flip(0.4)
    comp = compose(dual(ch), ch)
    # projector onto span{|00>,|11>} commutes with Z1 Z2: fixed both ways
    p = np.zeros((4, 4), dtype=complex)
    p[0, 0] = p[3, 3] = 1.0
    assert np.linalg.norm(comp.apply(p) - p) < 1e-10
    assert np.linalg.norm(dual(comp).apply(p) - p) < 1e-10
    # a random projector is fixed by neither
    q = random_projector(4, 2, seed=12)
    forward = np.linalg.norm(comp.apply(q) - q) < 1e-9
    backward = np.linalg.norm(dual(comp).apply(q) - q) < 1e-9
    assert forward == backward


@pytest.mark.parametrize("seed", range(3))
def test_invariance_lemma_both_directions(seed):
    rng = np.random.default_rng(50 + seed)
    # block-preserving channel: Kraus operators block diagonal w.r.t. p
    blocks = [haar_unitary(2, rng) for _ in range(2)]
    k1 = np.zeros((4, 4), dtype=complex)
    k1[:2, :2] = blocks[0]
    k1[2:, 2:] = blocks[1]
    blocks2 = [haar_unitary(2, rng) for _ in range(2)]
    k2 = np.zeros((4, 4), dtype=complex)
    k2[:2, :2] = blocks2[0]
    k2[2:, 2:] = blocks2[1]
    ch = KrausChannel([np.sqrt(0.5) * k1, np.sqrt(0.5) * k2])
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)

    def proj_super_identity_holds(op, p):
        # P∘O∘P = O∘P checked on an operator basis
        for x in operator_basis(4):
            lhs = p @ op.apply(p @ x @ p) @ p
            rhs = op.apply(p @ x @ p)
            if np.linalg.norm(lhs - rhs) > 1e-9:
                return False
        return True

    def support_contained(op, p):
        x = op.apply(p)
        pp = np.eye(4) - p
        return (np.linalg.norm(pp @ x @ pp) + np.linalg.norm(pp @ x @ p)
                ) < 1e-9 * max(1.0, np.linalg.norm(x))

    assert support_contained(ch, p)
    assert proj_super_identity_holds(ch, p)
    # generic channel violates both
    gen = random_channel(4, 3, rng)
    assert not support_contained(gen, p)
    assert not proj_super_identity_holds(gen, p)


def _dense_distance(f, g):
    sf = to_superoperator(f)
    return np.linalg.norm(sf - to_superoperator(g)), np.linalg.norm(sf)


@pytest.mark.parametrize("seed", range(5))
def test_channels_equal_judges_the_dense_superoperator_distance(seed):
    # the thin-QR norm agrees with the d^2 x d^2 reference: the verdict flips
    # within a relative 1e-9 of tol = ||S_f - S_g|| / max(1, ||S_f||)
    rng = np.random.default_rng(900 + seed)
    f = random_channel(6, 3, seed=rng)
    for g in (random_channel(6, 2, seed=rng),
              KrausChannel([k + 1e-7 * rng.normal(size=k.shape) for k in f.kraus],
                           require_tp=False)):
        diff, scale = _dense_distance(f, g)
        tol = diff / max(1.0, scale)
        assert channels_equal(f, g, tol=tol * (1 + 1e-9))
        assert not channels_equal(f, g, tol=tol * (1 - 1e-9))


@pytest.mark.parametrize("seed", range(5))
def test_channels_equal_with_fewer_r_rows_than_kraus_operators(seed):
    # d = 2 with three Kraus operators a side: the R factor has
    # K = d^2 = 4 < 6 rows, and the verdict still flips at the dense distance.
    # The kick is 1e-5: a 1e-7 kick leaves a distance near 2e-7, where
    # rounding alone (about 1e-16 on entries of order 1) moves every way of
    # computing it, the dense one included, by up to 1e-9 relative
    rng = np.random.default_rng(980 + seed)
    f = random_channel(2, 3, seed=rng)
    for g in (random_channel(2, 3, seed=rng),
              KrausChannel([k + 1e-5 * rng.normal(size=k.shape) for k in f.kraus],
                           require_tp=False)):
        diff, scale = _dense_distance(f, g)
        tol = diff / max(1.0, scale)
        assert channels_equal(f, g, tol=tol * (1 + 1e-9))
        assert not channels_equal(f, g, tol=tol * (1 - 1e-9))


@pytest.mark.parametrize("seed", range(5))
def test_channels_equal_under_random_remixing_and_padding(seed):
    f = random_channel(6, 3, seed=950 + seed)
    u = haar_unitary(5, seed=960 + seed)
    padded = list(f.kraus) + [np.zeros((6, 6))] * 2
    remixed = [sum(u[a, b] * padded[b] for b in range(5)) for a in range(5)]
    g = KrausChannel(remixed)
    assert _dense_distance(f, g)[0] < 1e-13
    assert channels_equal(f, g, tol=1e-13)
    assert not channels_equal(f, KrausChannel(remixed[:4], require_tp=False))


def _unital_defect_formula(ch):
    return frobenius(sum(k @ dagger(k) for k in ch.kraus) - np.eye(ch.dim))


def test_unital_defect_is_computed_on_first_use_with_unchanged_values():
    channels = [demo_build(DemoSpec(name=name))[0] for name in DEMO_NAMES]
    channels += [planted_channel(2, 2, 12, 3, seed=5, unital=True)[0],
                 planted_channel(2, 2, 12, 3, seed=5)[0], random_channel(5, 3, seed=2)]
    verdicts = []
    for ch in channels:
        assert "unital_defect" not in vars(ch)
        assert ch.unital_defect == _unital_defect_formula(ch)
        assert "unital_defect" in vars(ch)
        verdicts.append(ch.is_unital)
        assert repr(ch).endswith(f"unital={ch.is_unital})")
    assert verdicts == [True, True, True, False, True, False, False]
    for ch in channels[-2:]:
        for discover in (enumerate_noiseless, find_ucc):
            with pytest.raises(NotUnital, match="requires a unital channel"):
                discover(ch, seed=0)


def test_check_and_recover_never_read_the_unital_defect():
    ch, dec = planted_channel(2, 2, 12, 3, seed=5)
    cert = check_correctable(ch, dec)
    correction = recovery_to_correction(construct_recovery(ch, dec, cert), dec)
    residual, _ = verify_correction(ch, dec, correction)
    assert cert.passed and residual < 1e-9
    assert "unital_defect" not in vars(ch) and "unital_defect" not in vars(correction)
    assert not ch.is_unital


def test_a_complex_stack_is_kept_and_a_list_is_stacked_once():
    stack = np.stack([haar_unitary(32, seed) / 4.0 for seed in range(16)])
    ch = KrausChannel(stack)
    assert ch.kraus is stack and np.shares_memory(ch.kraus, stack)
    assert ch.m == len(ch.kraus) == 16 and ch.dim == 32
    assert all(k.shape == (32, 32) for k in ch.kraus)
    assert np.array_equal(ch.kraus[2], stack[2])
    ops = [np.array(k) for k in stack]
    tracemalloc.start()
    try:
        listed = KrausChannel(ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one copy of the operators, and no second: the stack, plus the
    # finiteness mask and the d x d temporaries of the TP defect
    assert peak < stack.nbytes + 6 * ops[0].nbytes < 2 * stack.nbytes
    assert listed.kraus.shape == (16, 32, 32) and listed.kraus.dtype == complex
    assert not any(np.shares_memory(listed.kraus, k) for k in ops)
    assert listed.kraus.tobytes() == stack.tobytes()


@pytest.mark.parametrize("kraus", [[np.eye(2), np.eye(3)], [np.ones((2, 3))],
                                   np.ones((2, 3, 4)), np.eye(3), []])
def test_ragged_non_square_or_empty_kraus_input_is_refused(kraus):
    with pytest.raises(DimensionMismatch):
        KrausChannel(kraus, require_tp=False)


def test_a_nan_kraus_entry_is_refused():
    stack = np.stack([np.eye(3), np.eye(3)]) / np.sqrt(2)
    stack[1, 0, 2] = np.nan
    with pytest.raises(NotFinite):
        KrausChannel(stack)
    with pytest.raises(NotFinite):
        KrausChannel(list(stack))


def test_every_channel_source_holds_its_own_stack():
    planted, _ = planted_channel(2, 2, 12, 3, seed=4)
    wire = channel_from_json(json.loads(canonical_dumps(channel_to_json(planted))))
    listed = KrausChannel([np.eye(3) / np.sqrt(2), np.eye(3) / np.sqrt(2)])
    for ch in (planted, wire, listed):
        assert np.asarray(ch.kraus) is ch.kraus
        assert ch.kraus.dtype == complex and ch.kraus.shape == (ch.m, ch.dim, ch.dim)
    assert wire.kraus.tobytes() == planted.kraus.tobytes()
