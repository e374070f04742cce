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


def loop_certificate(ops, d_a, d_b, frame=None):
    """F from the I_B slice, then the worst mismatch, one matrix unit at a time."""
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
                    worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return superop, worst


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
