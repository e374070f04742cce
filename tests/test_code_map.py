"""The code-space certificate kernel against the superoperator oracle and
a plain per-matrix-unit loop."""

import tracemalloc

import numpy as np
import pytest

from subrec import (
    DemoSpec,
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
from subrec.linalg import dagger
from subrec.random_ops import haar_isometry, haar_unitary

from oracles import superop_tensor_factorizes

THRESHOLD = 1e-7


def unit(d, r, c):
    e = np.zeros((d, d), dtype=complex)
    e[r, c] = 1.0
    return e


def loop_certificate(ops, d_a, d_b, frame=None, fold=max):
    """F from the I_B slice, then the worst mismatch, one matrix unit at a time,
    folded into one value by ``fold``."""
    d_out = ops[0].shape[0]
    frame = np.eye(d_out) if frame is None else frame
    d_c = frame.shape[1] // d_b

    def act(x):
        return sum(k @ x @ dagger(k) for k in ops)

    superop = np.zeros((d_c * d_c, d_a * d_a), dtype=complex)
    worst = 0.0
    for i in range(d_a):
        for j in range(d_a):
            out = dagger(frame) @ act(np.kron(unit(d_a, i, j), np.eye(d_b))) @ frame
            f_ij = np.trace(out.reshape(d_c, d_b, d_c, d_b), axis1=1, axis2=3) / d_b
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


def assert_matches_loop(ops, d_a, d_b, frame=None):
    cm = certify_code_map(ops, d_a, d_b, frame=frame)
    superop, worst = loop_certificate(list(ops), d_a, d_b, frame)
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
