"""The code-space certificate kernel against the superoperator oracle and
a plain per-matrix-unit loop."""

import tracemalloc

import numpy as np
import pytest

from subrec import (
    DemoSpec,
    DimensionMismatch,
    KrausChannel,
    SubsystemDecomposition,
    certify_code_map,
    check_correctable,
    check_noiseless,
    construct_recovery,
    demo_build,
    planted_channel,
    recovery_to_correction,
    verify_correction,
)
from subrec.linalg import complete_isometry, dagger, orthonormal_complement
from subrec.random_ops import haar_isometry, haar_unitary

from oracles import superop_tensor_factorizes

THRESHOLD = 1e-7


def unit(d, r, c):
    e = np.zeros((d, d), dtype=complex)
    e[r, c] = 1.0
    return e


def loop_certificate(ops, d_a, d_b, frame=None, fold=max, superop=None):
    """F from the I_B slice (or from ``superop`` when given), then the worst
    mismatch, one matrix unit at a time, folded into one value by ``fold``."""
    d_out = ops[0].shape[0]
    frame = np.eye(d_out) if frame is None else frame
    d_c = frame.shape[1] // d_b
    given = superop

    def act(x):
        return sum(k @ x @ dagger(k) for k in ops)

    superop = np.zeros((d_c * d_c, d_a * d_a), dtype=complex)
    worst = 0.0
    for i in range(d_a):
        for j in range(d_a):
            out = dagger(frame) @ act(np.kron(unit(d_a, i, j), np.eye(d_b))) @ frame
            f_ij = np.trace(out.reshape(d_c, d_b, d_c, d_b), axis1=1, axis2=3) / d_b
            if given is not None:
                f_ij = given[:, i + d_a * j].reshape(d_c, d_c, order="F")
            superop[:, i + d_a * j] = f_ij.flatten(order="F")
            for k in range(d_b):
                for l in range(d_b):
                    lhs = act(np.kron(unit(d_a, i, j), unit(d_b, k, l)))
                    rhs = frame @ np.kron(f_ij, unit(d_b, k, l)) @ dagger(frame)
                    worst = fold(worst, float(np.linalg.norm(lhs - rhs)))
    return superop, worst


def loop_certificate_keeping_nan(ops, d_a, d_b, frame=None):
    """loop_certificate folded by ``np.maximum``, which keeps a NaN where
    Python's ``max(worst, nan)`` returns ``worst``."""
    return loop_certificate(ops, d_a, d_b, frame, fold=np.maximum)


def compressed_pairs(ch, dec):
    """Kraus operators W^dag E_a^dag E_b W of P_AB ∘ E^dag ∘ E ∘ P_AB."""
    return [dec.compress(dagger(a) @ b) for a in ch.kraus for b in ch.kraus]


def assert_matches_loop(ops, d_a, d_b, frame=None, superop=None):
    cm = certify_code_map(ops, d_a, d_b, frame=frame, superop=superop)
    superop, worst = loop_certificate(list(ops), d_a, d_b, frame, superop=superop)
    assert np.linalg.norm(cm.superop - superop) < 1e-12
    assert abs(cm.residual - worst) < 1e-12
    for i in range(d_a):
        for j in range(d_a):
            f_ij = cm.superop[:, i + d_a * j].reshape(cm.factors.shape[2:], order="F")
            assert np.array_equal(cm.factors[i, j], f_ij)
    return cm


@pytest.mark.parametrize("dims", [(1, 2, 4, 2), (2, 2, 8, 3), (1, 4, 8, 3), (3, 2, 9, 2)])
def test_planted_positive_agrees_with_oracle_and_loop(dims):
    d_a, d_b, dim, m = dims
    ch, dec = planted_channel(d_a, d_b, dim, m, seed=31)
    cm = assert_matches_loop(compressed_pairs(ch, dec), d_a, d_b)
    verdict, _, g_oracle = superop_tensor_factorizes(ch, dec)
    assert verdict
    assert cm.residual < 1e-12
    assert np.linalg.norm(cm.superop - g_oracle) < 1e-10
    # E ∘ P_AB at ambient dimension, framed by W (it does not factor there)
    assert_matches_loop([k @ dec.w for k in ch.kraus], d_a, d_b, frame=dec.w)


@pytest.mark.parametrize("seed", [32, 33, 34])
def test_haar_negative_agrees_with_oracle_and_loop(seed):
    ch, _ = planted_channel(2, 2, 8, 3, seed=seed)
    dec = SubsystemDecomposition(8, 2, 2, haar_isometry(8, 4, seed=seed + 100))
    cm = assert_matches_loop(compressed_pairs(ch, dec), 2, 2)
    verdict, _, _ = superop_tensor_factorizes(ch, dec)
    assert not verdict
    assert not cm.residual <= THRESHOLD


def test_residual_grows_with_perturbation():
    ch, dec = planted_channel(2, 2, 8, 3, seed=35)
    rng = np.random.default_rng(36)
    kicks = [rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) for _ in ch.kraus]
    residuals = []
    for eps in (1e-8, 1e-6, 1e-4, 1e-2):
        noisy = KrausChannel([k + eps * r for k, r in zip(ch.kraus, kicks)],
                             require_tp=False)
        residuals.append(assert_matches_loop(compressed_pairs(noisy, dec), 2, 2).residual)
    assert all(a < b for a, b in zip(residuals, residuals[1:]))
    assert residuals[0] < THRESHOLD < residuals[-1]


def test_more_columns_than_output_rows():
    # compressed pairs of an m = 4 channel: m^2 + d_C = 17 columns against d_out = 2 rows
    ch, dec = planted_channel(1, 2, 6, 4, seed=41)
    pairs = compressed_pairs(ch, dec)
    assert len(pairs) + 1 > pairs[0].shape[0]
    cm = assert_matches_loop(pairs, 1, 2)
    assert cm.residual < 1e-12
    ch, _ = planted_channel(1, 2, 6, 4, seed=42)
    dec = SubsystemDecomposition.from_subspace(6, list(haar_isometry(6, 2, seed=43).T))
    cm = assert_matches_loop(compressed_pairs(ch, dec), 1, 2)
    assert not cm.residual <= THRESHOLD


@pytest.mark.parametrize("eps", [1e-10, 1e-9, 1e-6])
def test_near_threshold_perturbation_agrees_with_loop(eps):
    ch, dec = planted_channel(2, 4, 16, 3, seed=44)
    rng = np.random.default_rng(45)
    noisy = KrausChannel([k + eps * (rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape))
                          for k in ch.kraus], require_tp=False)
    cm = assert_matches_loop(compressed_pairs(noisy, dec), 2, 4)
    assert 0.1 * eps < cm.residual < 100 * eps
    assert_matches_loop([k @ dec.w for k in noisy.kraus], 2, 4, frame=dec.w)


def test_one_dimensional_code():
    u = haar_unitary(6, seed=37)
    dec = SubsystemDecomposition.from_subspace(6, list(haar_isometry(6, 3, seed=38).T))
    cm = assert_matches_loop([u @ dec.w], 1, 3, frame=u @ dec.w)
    assert cm.residual < 1e-12
    assert np.allclose(cm.superop, [[1.0]])


def test_cooling_recovery_output_frame_larger_than_a():
    ch, dec = demo_build(DemoSpec(name="binary-unitary", p=0.4,
                                  thetas=(0.5, 1.4, 2.9, 4.2), seed=2))
    res = construct_recovery(ch, dec, check_correctable(ch, dec))
    assert res.dim_c > dec.d_a
    ops = [res.u_recovery @ k @ dec.w for k in ch.kraus]
    cm = assert_matches_loop(ops, dec.d_a, dec.d_b, frame=res.c_subsystem.w)
    assert cm.superop.shape == (res.dim_c ** 2, dec.d_a ** 2)
    assert abs(cm.residual - res.residual) < 1e-14
    correction = recovery_to_correction(res, dec)
    assert correction.m > 1
    ops = [r @ k @ dec.w for r in correction.kraus for k in ch.kraus]
    cm = assert_matches_loop(ops, dec.d_a, dec.d_b, frame=dec.w)
    assert abs(cm.residual - verify_correction(ch, dec, correction)[0]) < 1e-14


def test_nan_operator_gives_nan_residual_and_failing_verdicts():
    ch, dec = planted_channel(2, 2, 8, 3, seed=39)
    ops = [k @ dec.w for k in ch.kraus]
    ops[1][3, 2] = np.nan
    cm = certify_code_map(ops, 2, 2, frame=dec.w)
    assert np.isnan(cm.residual)
    assert not cm.residual <= THRESHOLD
    # KrausChannel refuses NaN; poison a constructed channel in place
    poisoned = KrausChannel(ch.kraus)
    poisoned.kraus[1][3, 2] = np.nan
    verdict = check_noiseless(poisoned, dec)
    assert np.isnan(verdict.residual) and not verdict.ok
    cert = check_correctable(poisoned, dec)
    assert np.isnan(cert.residual) and not cert.passed


def test_nan_superop_gives_nan_residual():
    ch, dec = planted_channel(2, 2, 8, 3, seed=48)
    pairs = compressed_pairs(ch, dec)
    g_a = certify_code_map(pairs, 2, 2).superop.copy()
    g_a[1, 2] = np.nan
    assert np.isnan(certify_code_map(pairs, 2, 2, superop=g_a).residual)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_inf_operator_gives_non_finite_residual():
    ch, dec = planted_channel(2, 2, 8, 3, seed=46)
    ops = [k @ dec.w for k in ch.kraus]
    ops[2][5, 1] = np.inf
    cm = certify_code_map(ops, 2, 2, frame=dec.w)
    assert not np.isfinite(cm.residual)
    assert not cm.residual <= THRESHOLD


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nan_keeping_oracle_and_kernel_agree_on_inf_operator():
    ch, dec = planted_channel(2, 2, 8, 3, seed=46)
    ops = [k @ dec.w for k in ch.kraus]
    ops[2][5, 1] = np.inf
    _, worst = loop_certificate_keeping_nan(ops, 2, 2, dec.w)
    assert not np.isfinite(worst)
    assert not np.isfinite(certify_code_map(ops, 2, 2, frame=dec.w).residual)
    # the running max of loop_certificate drops the NaN here
    assert np.isfinite(loop_certificate(ops, 2, 2, dec.w)[1])


def test_peak_memory_linear_in_code_dimension():
    d, d_a, d_b = 128, 4, 4
    n = d_a * d_b
    ch, dec = planted_channel(d_a, d_b, d, 3, seed=40)
    ops = np.asarray(ch.kraus) @ dec.w
    tracemalloc.start()
    try:
        certify_code_map(ops, d_a, d_b, frame=dec.w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a d^2 (d_A d_B)^2 intermediate alone would be 16 times the bound
    assert peak < 8 * d * d * n * 16


def test_peak_memory_with_many_operators():
    d, d_a, d_b, m = 64, 4, 4, 12
    n = d_a * d_b
    ch, dec = planted_channel(d_a, d_b, d, m, seed=47)
    ops = np.asarray(ch.kraus) @ dec.w
    assert ops.shape == (m, d, n)
    tracemalloc.start()
    try:
        cm = certify_code_map(ops, d_a, d_b, frame=dec.w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * d * d * n * 16
    superop, worst = loop_certificate(list(ops), d_a, d_b, dec.w)
    assert np.linalg.norm(cm.superop - superop) < 1e-12
    assert abs(cm.residual - worst) < 1e-12


def _factoring_instance(d_out, m, d_c, d_a=2, d_b=2, seed=49):
    # N_a = V (K_a (x) I_B) factors exactly with F(X) = sum_a K_a X K_a^dag
    rng = np.random.default_rng(seed)
    frame = haar_isometry(d_out, d_c * d_b, seed=seed + 1)
    kraus = rng.normal(size=(m, d_c, d_a)) + 1j * rng.normal(size=(m, d_c, d_a))
    ops = frame @ np.kron(kraus, np.eye(d_b))
    return ops, frame, certify_code_map(ops, d_a, d_b, frame=frame).superop


# K = min(d_out, m + d_C) is d_out < m + d_C in the first case, m + d_C in
# the second; in the third, K = 19 and the row groups of 7 rows split each
# A index of d_B = 8
@pytest.mark.parametrize("d_out, m, d_c, d_a, d_b", [
    pytest.param(4, 3, 2, 2, 2, id="4-3-2"), pytest.param(12, 3, 3, 2, 2, id="12-3-3"),
    pytest.param(24, 17, 2, 3, 8, id="24-17-2-3-8")])
def test_given_non_hermitian_factor_map_agrees_with_loop(d_out, m, d_c, d_a, d_b):
    ops, frame, exact = _factoring_instance(d_out, m, d_c, d_a=d_a, d_b=d_b)
    last = d_a - 1
    rng = np.random.default_rng(52)
    kick = 0.3 * (rng.normal(size=(d_c, d_c)) + 1j * rng.normal(size=(d_c, d_c)))
    # a map that does not preserve Hermiticity: F(|last><0|) != F(|0><last|)^dag
    kicked = exact.copy()
    kicked[:, last] += kick.flatten(order="F")
    f_l0 = kicked[:, last].reshape(d_c, d_c, order="F")
    f_0l = kicked[:, d_a * last].reshape(d_c, d_c, order="F")
    assert np.linalg.norm(f_l0 - dagger(f_0l)) > 0.1
    cm = assert_matches_loop(ops, d_a, d_b, frame=frame, superop=kicked)
    # the mismatch sits only in the rows p = (last, k) against the columns
    # q = (0, l) < p, where it is V_k kick V_l^dag: a given map takes every
    # pair, not only the columns from each row group's first row on
    assert abs(cm.residual - np.linalg.norm(kick)) < 1e-12
    assert certify_code_map(ops, d_a, d_b, frame=frame, superop=exact).residual < 1e-12
    rand = rng.normal(size=exact.shape) + 1j * rng.normal(size=exact.shape)
    assert_matches_loop(ops, d_a, d_b, frame=frame, superop=rand)


# (d_A, d_B): the compressed pairs of a planted code with m = 5 have
# d_out = n = 24 and K = 24, so the row groups have 4 rows and split every
# A index (into 4 + 2 rows at d_B = 6); d_A = 1 has six groups
@pytest.mark.parametrize("unital", [False, True])
@pytest.mark.parametrize("d_a, d_b", [(1, 24), (2, 12), (3, 8), (4, 6)])
def test_pair_symmetric_kernel_on_planted_codes_agrees_with_loop(d_a, d_b, unital):
    # F read off the I_B slice: each unordered pair of matrix units is taken once
    n, m = d_a * d_b, 5
    ch, dec = planted_channel(d_a, d_b, n + 8, m, seed=70 + d_a, unital=unital)
    # E ∘ P_AB framed by W: K = m + d_A, all rows in one group
    assert_matches_loop([k @ dec.w for k in ch.kraus], d_a, d_b, frame=dec.w)
    pairs = np.array(compressed_pairs(ch, dec))
    assert _group_rows(n, m * m + d_a, n) == 4 < d_b
    assert certify_code_map(pairs, d_a, d_b).residual < 1e-12
    rng = np.random.default_rng(71)
    kick = rng.normal(size=pairs.shape) + 1j * rng.normal(size=pairs.shape)
    cm = assert_matches_loop(pairs + 1e-3 * kick, d_a, d_b)
    assert cm.residual > 1e-5


@pytest.mark.parametrize("d_a", [2, 3])
def test_kick_below_the_diagonal_is_seen_through_its_mirrored_block(d_a):
    # N_a = V (K_a (x) I_B) factors exactly, with K_a |d_A - 1> = 0; the kick
    # eps w, w a unit vector orthogonal to range(V), goes into the column
    # p = (d_A - 1, 0) of N_0 alone.  The mismatch is then eps w N_0[:, q]^dag
    # at the rows p, of norm eps ||K_0 |j>|| at the columns q = (j, l): it is
    # largest at some j < d_A - 1, where the kernel meets it only as the
    # adjoint, rows of A index j against the columns of A index d_A - 1.
    # The diagonal pair (p, p) carries eps^2 alone
    d_b, d_c, m, d_out, eps = 2, 2, 3, 8, 1e-3
    rng = np.random.default_rng(72)
    frame = haar_isometry(d_out, d_c * d_b, seed=73)
    kraus = rng.normal(size=(m, d_c, d_a)) + 1j * rng.normal(size=(m, d_c, d_a))
    kraus[:, :, -1] = 0.0
    ops = frame @ np.kron(kraus, np.eye(d_b))
    w = orthonormal_complement(frame @ dagger(frame))[0]
    ops[0][:, (d_a - 1) * d_b] += eps * w
    cm = assert_matches_loop(ops, d_a, d_b, frame=frame)
    expected = eps * max(np.linalg.norm(kraus[0][:, j]) for j in range(d_a - 1))
    assert abs(cm.residual - expected) < 1e-12
    assert expected > 100 * eps ** 2


# the first and last row of A index 0, a row that opens the second group of
# A index 2, and the last row of all, which meets only its own group's columns
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("column", [0, 5, 16, 23])
def test_non_finite_operator_column_gives_non_finite_residual(bad, column):
    ch, dec = planted_channel(4, 6, 32, 5, seed=74)
    pairs = np.array(compressed_pairs(ch, dec))
    assert _group_rows(24, 25 + 4, 24) == 4
    pairs[7, 3, column] = bad
    residual = certify_code_map(pairs, 4, 6).residual
    assert not np.isfinite(residual)
    assert not residual <= THRESHOLD


def test_peak_memory_at_the_ucc_complement_block():
    # the complement of a planted (2, 4) code at d = 256 is a d_A = 1
    # noiseless block of E^dag ∘ E: its 9 Kraus operators on a 248-wide frame
    d, d_b = 256, 248
    ch, dec = planted_channel(2, 4, d, 3, seed=51, unital=True)
    w = complete_isometry(dec.w, 1e-9)[:, dec.w.shape[1]:]
    kraus = np.asarray(ch.kraus)
    ops = (kraus.conj().transpose(0, 2, 1)[:, None] @ (kraus @ w)[None]).reshape(-1, d, d_b)
    cols = len(ops) + 1
    k_rows = min(d, cols)
    tracemalloc.start()
    try:
        cm = certify_code_map(ops, 1, d_b, frame=w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cm.residual < 1e-10
    assert peak < 3 * (cols + k_rows) * d_b * d * 16


def _cooling_loop(res, dec):
    # the cooling correction written out: C index c = g d_A + i pairs with
    # A index i in group g, column by column, and every vector of the
    # complement of the C (x) B frame goes to the first code vector
    d = res.u_recovery.shape[0]
    d_a, d_b, rank_c = dec.d_a, dec.d_b, res.c_subsystem.d_a
    w, w_c = dec.w, res.c_subsystem.w
    kraus = []
    for g in range(-(-rank_c // d_a)):
        op = np.zeros((d, d), dtype=complex)
        for i in range(d_a):
            c = g * d_a + i
            if c < rank_c:
                for k in range(d_b):
                    op += np.outer(w[:, i * d_b + k], w_c[:, c * d_b + k].conj())
        kraus.append(op)
    for q in orthonormal_complement(w_c @ dagger(w_c)):
        kraus.append(np.outer(w[:, 0], q.conj()))
    return kraus


def test_cooling_correction_matches_written_out_loop():
    ch, dec = demo_build(DemoSpec(name="binary-unitary", p=0.4,
                                  thetas=(0.5, 1.4, 2.9, 4.2), seed=2))
    res = construct_recovery(ch, dec, check_correctable(ch, dec))
    correction = recovery_to_correction(res, dec)
    expected = _cooling_loop(res, dec)
    assert res.dim_c > dec.d_a and correction.m == len(expected)
    for op, loop_op in zip(correction.kraus, expected):
        assert np.max(np.abs(op - loop_op @ res.u_recovery)) < 1e-12


def _five_row_ops():
    rng = np.random.default_rng(53)
    return rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))


@pytest.mark.parametrize("shape", [(5, 0), (5,), (5, 4, 1), (4, 4), (5, 3)])
def test_malformed_frame_is_a_dimension_mismatch(shape):
    # zero width (d_C = 0), 1-D, 3-D, wrong row count, width not d_C * d_B
    with pytest.raises(DimensionMismatch):
        certify_code_map(_five_row_ops(), 2, 2, frame=np.zeros(shape))


def test_frame_given_as_nested_list_is_converted():
    ops = _five_row_ops()
    frame = haar_isometry(5, 4, seed=54)
    cm = certify_code_map(ops, 2, 2, frame=frame)
    listed = certify_code_map(ops, 2, 2, frame=frame.tolist())
    assert np.array_equal(listed.superop, cm.superop)
    assert listed.residual == cm.residual


@pytest.mark.parametrize("shape", [(4, 3), (16, 4), (4,)])
def test_superop_of_the_wrong_shape_is_a_dimension_mismatch(shape):
    # the frame makes d_C = 2 and d_A = 2, so F must be 4 x 4
    frame = haar_isometry(5, 4, seed=55)
    with pytest.raises(DimensionMismatch):
        certify_code_map(_five_row_ops(), 2, 2, frame=frame, superop=np.zeros(shape))


# (d_out, number of operators, d_B): K = min(d_out, m + d_C) > d_out / 2 in
# every case, so groups of K n d_out product entries would be one row each;
# under the floor of 2^16 entries all n rows go in one group instead
@pytest.mark.parametrize("d_out, m, d_b", [(10, 4, 2), (40, 12, 8), (10, 4, 5)])
def test_identity_factor_map_with_one_row_chunks_agrees_with_loop(d_out, m, d_b):
    # the shape of construct_recovery step 3 and channels_equal: d_A = 1,
    # F = I, the operators a unitary remix of the frame's column blocks, so
    # the map equals the frame's; a kick moves the residual off zero
    rng = np.random.default_rng(61)
    frame_ops = rng.normal(size=(m, d_out, d_b)) + 1j * rng.normal(size=(m, d_out, d_b))
    frame = frame_ops.transpose(1, 0, 2).reshape(d_out, m * d_b)
    ops = np.tensordot(haar_unitary(m, seed=62), frame_ops, axes=1)
    identity = np.eye(m).reshape(-1, 1)
    cm = assert_matches_loop(ops, 1, d_b, frame=frame, superop=identity)
    assert cm.residual < 1e-12 * np.linalg.norm(frame) ** 2
    kick = 1e-3 * (rng.normal(size=ops.shape) + 1j * rng.normal(size=ops.shape))
    cm = assert_matches_loop(ops + kick, 1, d_b, frame=frame, superop=identity)
    assert cm.residual > 1e-4


@pytest.mark.parametrize("d_out, m, d_c", [(7, 4, 2), (6, 4, 2)])
def test_general_factor_map_with_one_row_chunks_agrees_with_loop(d_out, m, d_c):
    # K = 6 > d_out / 2 with d_A = d_B = 2: groups of K n d_out product
    # entries would be one row each; under the 2^16 floor the blocks of both
    # A indices, two rows against one column A index each, go in one product
    d_a = d_b = 2
    ops, frame, exact = _factoring_instance(d_out, m, d_c)
    assert certify_code_map(ops, d_a, d_b, frame=frame).residual < 1e-12
    rng = np.random.default_rng(63)
    rand = rng.normal(size=exact.shape) + 1j * rng.normal(size=exact.shape)
    assert_matches_loop(ops, d_a, d_b, frame=frame, superop=rand)
    assert_matches_loop(ops + 1e-3 * rng.normal(size=ops.shape), d_a, d_b, frame=frame)


def _group_rows(d_out, cols, n):
    # the row-group rule of certify_code_map, K = min(d_out, m + d_C)
    k_rows = min(d_out, cols)
    return max(1, max(k_rows * n * d_out, 1 << 16) // (k_rows * k_rows * n))


# (d_out, m, d_C, d_A, d_B): every block, the rows of one A index against one
# column A index, in one product; then a cap of 22 rows against every
# column, room for 8 blocks of d_B = 8 rows and columns, so the 9 blocks of
# a given map take two products and the 6 of F read off the slice one;
# with d_C = d_A and with d_C = 4 > d_A
@pytest.mark.parametrize("d_out, m, d_c, d_a, d_b", [(6, 2, 2, 3, 2), (30, 8, 3, 3, 8),
                                                     (34, 7, 4, 3, 8)])
def test_row_groups_across_a_indices_agree_with_loop(d_out, m, d_c, d_a, d_b):
    n = d_a * d_b
    rows = _group_rows(d_out, m + d_c, n)
    assert rows > d_b
    if rows < n:
        assert rows % d_b and rows // d_b + 1 == d_a
    ops, frame, exact = _factoring_instance(d_out, m, d_c, d_a=d_a, d_b=d_b, seed=64)
    assert certify_code_map(ops, d_a, d_b, frame=frame).residual < 1e-12
    rng = np.random.default_rng(65)
    rand = rng.normal(size=exact.shape) + 1j * rng.normal(size=exact.shape)
    assert_matches_loop(ops, d_a, d_b, frame=frame, superop=rand)
    assert_matches_loop(ops + 1e-3 * rng.normal(size=ops.shape), d_a, d_b, frame=frame)
