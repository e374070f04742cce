"""The step 2 and step 3 bounds of the recovery builder against its exact values.

Given the caller's own correctability certificate, ``construct_recovery``
judges the orthogonality of the remixed ranges (step 2) by a bound read
off the certificate: F, its eigenbasis q and the pair residuals r_ab.  The
exact grouped Gram gate runs only where that bound fails
``acceptance_tol(tol, lambda_max)``, or when the certificate was made from
other, value-equal objects.  Step 3 reports the bound
||q q^dag - I||_F max_k ||E(k)||_F^2 on every path.  Each case here runs
both ways, with the own certificate and with the certificate of an equal
copy of the channel, and checks that

* the step 2 value is at least the exact gate's; where the bound fails,
  it is the exact one bit for bit, and where it passes, it is the bound
  written out below;
* the step 3 value is the bound written out below, the same bits both
  ways, and not below the written-out definition wherever q is scaled off
  unitarity;
* both runs raise the same error, or return the same operators bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subrec.recovery as recovery
from subrec import (DemoSpec, KrausChannel, SubsystemDecomposition, check_correctable,
                    construct_recovery, demo_build, planted_channel)
from subrec.cli import main
from subrec.errors import NotPartialIsometry
from subrec.io import canonical_dumps, channel_to_json, subsystem_to_json
from subrec.linalg import acceptance_tol, complete_isometry, dagger, strict_tol
from subrec.random_ops import haar_unitary

from oracles import remix_mismatch


def _bounds(ch, dec, cert, tol):
    # the two bounds written out from the certificate, on the builder's
    # eigenbasis q of F: with Λ = diag(max(λ, 0)), ||r|| the root sum of
    # squares of the pair residuals, the rounding allowance
    # ρ = (d + m d_A) eps and E(k) the columns E_a W(|i> (x) |k>),
    #   step 2: sqrt(d_B) ||q^dag F q - Λ||_F
    #           + (1 + ||q^dag q - I||_F) (||r|| + ρ d_B Σ|λ|),
    #           judged at acceptance_tol(λ_max),
    #   step 3: ||q q^dag - I||_F max_k ||E(k)||_F^2
    f = cert.f_matrix
    lam, q = recovery._diagonalize_f(f, tol)
    size = len(lam)
    rho = (ch.dim + size) * np.finfo(float).eps
    r = np.sqrt(np.sum(cert.pair_residuals ** 2))
    step_2 = (np.sqrt(dec.d_b) * np.linalg.norm(dagger(q) @ f @ q - np.diag(np.maximum(lam, 0)))
              + (1 + np.linalg.norm(dagger(q) @ q - np.eye(size)))
              * (r + rho * dec.d_b * np.sum(np.abs(lam))))
    ew = (np.asarray(ch.kraus) @ dec.w).reshape(ch.m, ch.dim, dec.d_a, dec.d_b)
    blocks = max(np.linalg.norm(ew[..., k]) ** 2 for k in range(dec.d_b))
    step_3 = np.linalg.norm(q @ dagger(q) - np.eye(size)) * blocks
    return step_2, step_3, acceptance_tol(tol, lam[0])


def _outcome(ch, dec, cert, tol):
    try:
        return construct_recovery(ch, dec, cert, tol=tol)
    except Exception as err:  # the type is compared between the two runs
        return type(err)


def _assert_sound(ch, dec, tol=1e-9):
    """Run both ways and compare; returns the outcome of the own certificate."""
    cert = check_correctable(ch, dec, tol=tol)
    if not cert.passed:
        return None
    copy = KrausChannel(ch.kraus, require_tp=False, tol=ch.tol)
    own = _outcome(ch, dec, cert, tol)
    exact = _outcome(ch, dec, check_correctable(copy, dec, tol=tol), tol)
    if isinstance(exact, type) or isinstance(own, type):
        assert own is exact
        return own
    step_2, step_3, gate = _bounds(ch, dec, cert, tol)
    assert own.orthogonality_residual >= exact.orthogonality_residual
    if step_2 <= gate:
        assert own.orthogonality_residual == pytest.approx(step_2, rel=1e-12, abs=1e-300)
    else:
        assert own.orthogonality_residual == exact.orthogonality_residual
    assert own.g_action_residual == exact.g_action_residual
    assert own.g_action_residual == pytest.approx(step_3, rel=1e-12, abs=1e-300)
    assert own.u_recovery.tobytes() == exact.u_recovery.tobytes()
    assert own.c_subsystem.w.tobytes() == exact.c_subsystem.w.tobytes()
    assert [k.tobytes() for k in own.f_ca_kraus] == [k.tobytes() for k in exact.f_ca_kraus]
    assert own.f_ca_superop.tobytes() == exact.f_ca_superop.tobytes()
    assert own.residual == exact.residual
    return own


@pytest.mark.parametrize("index", range(41))
def test_certify_benchmark_instances(index):
    # the certify workload's instances at seed 1: planted (4, 8) codes at
    # d = 40 with m = 3, instance i drawn from default_rng([1, 1, i])
    ch, dec = planted_channel(4, 8, 40, 3, np.random.default_rng([1, 1, index]))
    res = _assert_sound(ch, dec)
    assert res.orthogonality_residual < 1e-12 and res.g_action_residual < 1e-12


@pytest.mark.parametrize("d_a", [1, 2, 3, 4])
@pytest.mark.parametrize("unital", [False, True])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_planted_codes(d_a, unital, m):
    ch, dec = planted_channel(d_a, 3, 4 * d_a + 6, m, seed=10 * d_a + m, unital=unital)
    assert not isinstance(_assert_sound(ch, dec), type)


def test_binary_unitary_code_with_dim_c_above_d_a():
    ch, dec = demo_build(DemoSpec(name="binary-unitary", p=0.4,
                                  thetas=(0.5, 1.4, 2.9, 4.2), seed=2))
    res = _assert_sound(ch, dec)
    assert res.dim_c == 2 > dec.d_a


def test_ucc_complement_block_at_d_256():
    ch, code = planted_channel(2, 4, 256, 8, seed=1, unital=True)
    block = SubsystemDecomposition(256, 1, 248, complete_isometry(code.w, 1e-9)[:, 8:])
    res = _assert_sound(ch, block)
    assert res.residual < 1e-10


def _large_off_code(seed, kick, shrink):
    # a planted (2, 2) code at d = 10, scaled by `shrink`, plus 1e3 X_a on the
    # complement of the code and `kick` Y_a on it: ||E_a^dag E_b||_F is about
    # 1e7, so pair residuals far above tol still pass check_correctable, and F
    # (of size shrink^2) can be small beside them
    ch0, dec = planted_channel(2, 2, 10, 3, seed=seed)
    rng = np.random.default_rng(seed + 100)
    perp = np.eye(10) - dec.p_ab

    def gauss():
        return rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))

    kraus = [shrink * k + 1e3 * gauss() @ perp + kick * gauss() @ dec.p_ab for k in ch0.kraus]
    return KrausChannel(kraus, require_tp=False, tol=1.0), dec


@settings(derandomize=True, max_examples=60, deadline=None)
@given(log_kick=st.floats(-8, -2), seed=st.integers(0, 2**16),
       tol=st.sampled_from([1e-9, 1e-6, 1e-4]), shrink=st.sampled_from([1.0, 0.1, 0.01]))
@example(log_kick=-3.5, seed=0, tol=1e-6, shrink=0.1)  # NumericalDegeneracy both ways
@example(log_kick=-4.0, seed=0, tol=1e-6, shrink=0.1)  # the completion fails both ways
@example(log_kick=-5.0, seed=0, tol=1e-4, shrink=1.0)  # passes, far from the gate
def test_kicked_channels_raise_where_the_exact_gate_raises(log_kick, seed, tol, shrink):
    ch, dec = _large_off_code(seed, 10.0 ** log_kick, shrink)
    _assert_sound(ch, dec, tol)


def test_more_live_columns_than_the_dimension_raise_not_partial_isometry():
    # check_correctable passes at tol = 1e-6, but step 4's closed-form images
    # are 12 live columns in d = 10: the completion names the failure
    ch, dec = _large_off_code(0, 5.6e-4, 0.01)
    cert = check_correctable(ch, dec, tol=1e-6)
    assert cert.passed
    with pytest.raises(NotPartialIsometry, match="12 columns"):
        construct_recovery(ch, dec, cert, tol=1e-6)


def test_cli_recover_of_more_live_columns_than_the_dimension_exits_1(tmp_path, capsys):
    ch, dec = _large_off_code(0, 5.6e-4, 0.01)
    ch_file, dec_file = tmp_path / "ch.json", tmp_path / "dec.json"
    ch_file.write_text(canonical_dumps(channel_to_json(ch)))
    dec_file.write_text(canonical_dumps(subsystem_to_json(dec)))
    code = main(["recover", "--channel", str(ch_file), "--subsystem", str(dec_file),
                 "--no-tp-check", "--tolerance", "1e-6"])
    err = capsys.readouterr().err
    assert code == 1
    assert "NotPartialIsometry" in err and "Traceback" not in err


def _orthogonal_ranges(seed):
    # Kraus operators sqrt(p_a) V S^a W_0 send a (1, 3) code to mutually
    # orthogonal ranges, so F = diag(p_a) has four separate blocks: the step 2
    # bound sums them where the exact gate takes the largest, about 1.37 times
    # the exact value once q is scaled
    dim, d_b, weights = 16, 3, (0.4, 0.3, 0.2, 0.1)
    v, w0 = haar_unitary(dim, seed=seed), haar_unitary(dim, seed=seed + 1)
    kraus = [np.sqrt(p) * v @ np.roll(np.eye(dim), a * d_b, axis=0) @ w0
             for a, p in enumerate(weights)]
    return KrausChannel(kraus), SubsystemDecomposition(dim, 1, d_b, dagger(w0)[:, :d_b])


def _scaled_eigenvectors(scale):
    eig = recovery._diagonalize_f

    def scaled(f, tol):
        lam, q = eig(f, tol)
        return lam, scale * q

    return scaled


@settings(derandomize=True, max_examples=40, deadline=None)
@given(log_scale=st.floats(-9, -6), seed=st.integers(0, 2**16))
@example(log_scale=-7.175, seed=0)  # both bounds fail, the exact gate passes
@example(log_scale=-6.0, seed=0)  # both fail: NumericalDegeneracy both ways
def test_scaled_remix_straddles_the_gate(log_scale, seed):
    # q scaled by 1 + s: the step 2 residual is about 2 s p_0 sqrt(d_B), the
    # step 3 residual about 2 s ||F||_2; s near 6e-8 puts the step 2 bound
    # above acceptance_tol(1e-9, lambda_max) = 1e-7 and the exact gate below
    ch, dec = _orthogonal_ranges(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "_diagonalize_f", _scaled_eigenvectors(1.0 + 10.0 ** log_scale))
        res = _assert_sound(ch, dec)
        if not isinstance(res, type):
            q = recovery._diagonalize_f(check_correctable(ch, dec).f_matrix, 1e-9)[1]
            assert res.g_action_residual >= remix_mismatch(ch, dec, dagger(q))


def test_straddling_case_reports_the_exact_kernels():
    # the explicit example above: both bounds fail the gate, so the exact
    # Gram gate runs, and passes, and step 3 still reports its bound, which
    # is not below the definition written out on the scaled q
    ch, dec = _orthogonal_ranges(0)
    cert = check_correctable(ch, dec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "_diagonalize_f", _scaled_eigenvectors(1.0 + 10.0 ** -7.175))
        step_2, step_3, gate = _bounds(ch, dec, cert, 1e-9)
        res = _assert_sound(ch, dec)
        q = recovery._diagonalize_f(cert.f_matrix, 1e-9)[1]
    assert res.orthogonality_residual <= gate < min(step_2, step_3)
    assert res.g_action_residual >= remix_mismatch(ch, dec, dagger(q)) > strict_tol(1e-9)
