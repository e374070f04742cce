"""The step 2, 3 and 5 bounds of the recovery builder against its exact values.

Given the caller's own correctability certificate, ``construct_recovery``
judges the orthogonality of the remixed ranges (step 2) by a bound read
off the certificate: F, its eigenbasis q and the pair residuals r_ab.  The
exact grouped Gram gate runs only where that bound fails
``acceptance_tol(tol, lambda_max)``, or when the certificate was made from
other, value-equal objects.  Step 3 reports the bound
||q q^dag - I||_F max_k ||E(k)||_F^2 on every path.  Step 5 judges the
recovery identity on the composed operators U E_a W and the C frame by the
product-form bound that ``verify_correction`` and ``check_noiseless`` share:
the bound wherever it is within ``strict_tol(tol)``, and the exact
``certify_code_map`` residual elsewhere.  Each case here runs both ways,
with the own certificate and with the certificate of an equal copy of the
channel, and checks that

* the step 2 value is at least the exact gate's; where the bound fails,
  it is the exact one bit for bit, and where it passes, it is the bound
  written out below;
* the step 3 value is the bound written out below, the same bits both
  ways, and not below the written-out definition wherever q is scaled off
  unitarity;
* the step 5 value is at least the exact kernel's; where the product-form
  bound written out below passes, it is that bound and the superop is the
  closed form's, within that value of the extracted one and of the closed
  form of the builder's Kraus list, and where it fails, residual and
  superop are the kernel's bit for bit;
* both runs raise the same error, or return the same operators bit for bit.

The last part checks the product-form bound that step 5, ``verify_correction``
(and so ``find_ucc``) and ``check_noiseless`` report within ``strict_tol(tol)``:
on every call the library makes, it is at least the exact kernel's residual
and its closed-form superop is within it of the extracted one, and where it
exceeds the gate, or is NaN, the kernel's residual and superop are reported
bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subrec.recovery as recovery
import subrec.subsystem as subsystem
from subrec import (DemoSpec, KrausChannel, SubsystemDecomposition, check_correctable,
                    check_noiseless, compose, construct_recovery, demo_build, dual,
                    enumerate_noiseless, find_ucc, planted_channel, recovery_to_correction,
                    verify_correction)
from subrec.cli import main
from subrec.errors import NotPartialIsometry, NumericalDegeneracy, SubrecError
from subrec.io import canonical_dumps, channel_to_json, subsystem_to_json
from subrec.linalg import acceptance_tol, complete_isometry, dagger, strict_tol
from subrec.subsystem import certify_code_map
from subrec.random_ops import haar_unitary, random_unital_channel

from oracles import collective_rotation, remix_mismatch


def _bounds(ch, dec, cert, tol):
    # the two bounds written out from the certificate, on the builder's
    # eigenbasis q of F: with Λ = diag(max(λ, 0)), ||r|| the root sum of
    # squares of the pair residuals, the rounding allowance
    # ρ = (d + m d_A) eps and E(k) the columns E_a W(|i> (x) |k>),
    #   step 2: sqrt(d_B) ||q^dag F q - Λ||_F
    #           + (1 + ||q^dag q - I||_F) (||r|| + ρ d_B Σ|λ|),
    #           judged at acceptance_tol(λ_max),
    #   step 3: ||q q^dag - I||_F max_k ||E(k)||_F^2
    # (step 5 is the product-form bound, _product_form_mirror below)
    f = cert.f_matrix
    lam, q = recovery._diagonalize_f(f, tol)
    size = len(lam)
    rho = (ch.dim + size) * np.finfo(float).eps
    r = np.sqrt(np.sum(cert.pair_residuals ** 2))
    step_2 = (np.sqrt(dec.d_b) * np.linalg.norm(dagger(q) @ f @ q - np.diag(np.maximum(lam, 0)))
              + (1 + np.linalg.norm(dagger(q) @ q - np.eye(size)))
              * (r + rho * dec.d_b * np.sum(np.abs(lam))))
    ew = (np.asarray(ch.kraus) @ dec.w).reshape(ch.m, ch.dim, dec.d_a, dec.d_b)
    c = max(np.linalg.norm(ew[..., k]) ** 2 for k in range(dec.d_b))
    eta_out = np.linalg.norm(q @ dagger(q) - np.eye(size))
    step_3 = eta_out * c
    return step_2, step_3, acceptance_tol(tol, lam[0])


def _exact_step_5(ch, dec, res):
    return certify_code_map(res.u_recovery @ (np.asarray(ch.kraus) @ dec.w), dec.d_a, dec.d_b,
                            frame=res.c_subsystem.w)


def _closed_form_superop(kraus):
    # X -> sum_b K_b X K_b^dag in column stacking: sum_b conj(K_b) (x) K_b
    return sum(np.kron(k.conj(), k) for k in kraus)


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
    cm = _exact_step_5(ch, dec, own)
    assert own.residual >= cm.residual
    ops = own.u_recovery @ (np.asarray(ch.kraus) @ dec.w)
    bound, kraus, rounding = _product_form_mirror(ops, dec.d_a, own.c_subsystem)
    if bound <= strict_tol(tol):
        # on a planted code the remainders are rounding, whose last bits
        # depend on the order of the sums, so the two agree to the rounding
        # allowance they both carry
        assert own.residual == pytest.approx(bound, rel=1e-9, abs=rounding)
        assert np.allclose(own.f_ca_superop, _closed_form_superop(kraus),
                           rtol=1e-13, atol=1e-15)
        for other in (cm.superop, _closed_form_superop(own.f_ca_kraus)):
            assert np.max(np.linalg.norm(own.f_ca_superop - other, axis=0)) <= own.residual
    else:
        assert own.residual == cm.residual
        assert own.f_ca_superop.tobytes() == cm.superop.tobytes()
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


def test_more_live_columns_than_the_dimension_raise_numerical_degeneracy():
    # check_correctable passes at tol = 1e-6, but step 4's closed-form images
    # are 12 live columns in d = 10: the loose certificate is named, with the
    # completion's failure chained
    ch, dec = _large_off_code(0, 5.6e-4, 0.01)
    cert = check_correctable(ch, dec, tol=1e-6)
    assert cert.passed
    with pytest.raises(NumericalDegeneracy, match="12 columns") as info:
        construct_recovery(ch, dec, cert, tol=1e-6)
    assert isinstance(info.value.__cause__, NotPartialIsometry)


def test_cli_recover_of_more_live_columns_than_the_dimension_exits_1(tmp_path, capsys):
    ch, dec = _large_off_code(0, 5.6e-4, 0.01)
    ch_file, dec_file = tmp_path / "ch.json", tmp_path / "dec.json"
    ch_file.write_text(canonical_dumps(channel_to_json(ch)))
    dec_file.write_text(canonical_dumps(subsystem_to_json(dec)))
    code = main(["recover", "--channel", str(ch_file), "--subsystem", str(dec_file),
                 "--no-tp-check", "--tolerance", "1e-6"])
    err = capsys.readouterr().err
    assert code == 1
    assert "NumericalDegeneracy" in err and "Traceback" not in err


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


def test_step_5_straddle_reports_the_exact_kernel():
    # the kicked code at kick 1e-9 and shrink 0.1: the product-form bound on
    # U E_a W, about 4.1 times the exact residual, exceeds strict_tol(1e-9)
    # while the exact identity holds within it, so the kernel's residual and
    # superop are reported, bit for bit, and the verdict at strict_tol(1e-9)
    # is the exact one
    ch, dec = _large_off_code(0, 1e-9, 0.1)
    res = _assert_sound(ch, dec)
    ops = res.u_recovery @ (np.asarray(ch.kraus) @ dec.w)
    bound = subsystem._product_form_bound(ops, dec.d_a, res.c_subsystem)[0]
    cm = _exact_step_5(ch, dec, res)
    assert cm.residual <= strict_tol(1e-9) < bound
    assert res.residual == cm.residual
    assert res.f_ca_superop.tobytes() == cm.superop.tobytes()


def test_nan_step_5_input_reports_the_kernels_nan(monkeypatch):
    # a NaN in the stack E_a W that step 5 composes makes the bound NaN, which
    # fails the gate: the kernel runs, and its NaN residual and superop are
    # reported
    ch, dec = planted_channel(2, 2, 8, 3, seed=15)
    build, stacks = recovery._build_recovery, []

    def poisoned(*args):
        built = build(*args)
        kw = built.kw.copy()
        kw[1, 3, 2] = np.nan
        stacks.append(kw)
        return built._replace(kw=kw)

    monkeypatch.setattr(recovery, "_build_recovery", poisoned)
    res = construct_recovery(ch, dec, check_correctable(ch, dec))
    ops = res.u_recovery @ stacks[0]
    assert np.isnan(subsystem._product_form_bound(ops, dec.d_a, res.c_subsystem)[0])
    cm = certify_code_map(ops, dec.d_a, dec.d_b, frame=res.c_subsystem.w)
    assert np.isnan(res.residual) and np.isnan(cm.residual)
    assert res.f_ca_superop.tobytes() == cm.superop.tobytes()


def test_planted_corpus_never_runs_the_step_5_kernel(monkeypatch):
    # the certify instances, the planted codes, the binary-unitary code and the
    # d = 256 complement block: every step 5 bound passes, so the gate that
    # construct_recovery calls never reaches certify_code_map
    cases = [planted_channel(4, 8, 40, 3, np.random.default_rng([1, 1, i])) for i in range(41)]
    cases += [planted_channel(d_a, 3, 4 * d_a + 6, m, seed=10 * d_a + m, unital=unital)
              for d_a in (1, 2, 3, 4) for unital in (False, True) for m in (1, 2, 5)]
    cases.append(demo_build(DemoSpec(name="binary-unitary", p=0.4,
                                     thetas=(0.5, 1.4, 2.9, 4.2), seed=2)))
    ch, code = planted_channel(2, 4, 256, 8, seed=1, unital=True)
    cases.append((ch, SubsystemDecomposition(256, 1, 248, complete_isometry(code.w, 1e-9)[:, 8:])))
    certs = [check_correctable(ch, dec) for ch, dec in cases]
    kernel, calls = subsystem.certify_code_map, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return kernel(*args, **kwargs)

    # step 5 reaches the kernel only through the gate in subsystem
    assert not hasattr(recovery, "certify_code_map")
    monkeypatch.setattr(subsystem, "certify_code_map", counted)
    for (ch, dec), cert in zip(cases, certs):
        assert construct_recovery(ch, dec, cert).residual <= 1e-11
    assert calls == []


# The product-form bound of step 5, verify_correction, find_ucc and
# check_noiseless.  Each reaches the code-space certificate through one gate:
# the bound on the exact kernel's residual that the remainders
# N_c - V (k_c (x) I_B) give, V the output frame, is reported, with the
# closed-form superop, when it is within strict_tol(tol), and the kernel's
# residual and superop otherwise.

def _product_form_mirror(ops, d_a, out):
    # the bound written out per operator, for N_c on a code of factors
    # (d_A, d_B) against the output frame V = out.w of factors (d_C, d_B):
    # k_c = (1/d_B) sum_l V_l^dag N_c[:, (., l)] with V_l, N_c[:, (., l)] the
    # columns of B index l; A_c = V (k_c (x) I_B); δ the largest root sum over
    # c of the squared columns of N_c - A_c, f = max_i sum_c ||k_c e_i||^2,
    # γ = ||V^dag V - I||_F and a = ((1 + γ) f)^(1/2),
    #   B = 2 δ a + δ^2,  D = (1 + γ) B + (2 γ + γ^2) f,
    #   bound = B + (1 + γ) D
    #           + (d + max(d_A, d_C) d_B + C) eps ((a + δ)^2 + (1 + γ) f)
    v, d_c, d_b = out.w, out.d_a, out.d_b
    ks = [sum(dagger(v[:, l::d_b]) @ n[:, l::d_b] for l in range(d_b)) / d_b for n in ops]
    prod = [v @ np.kron(k, np.eye(d_b)) for k in ks]
    delta = np.sqrt(np.max(sum(np.sum(np.abs(n - p) ** 2, axis=0) for n, p in zip(ops, prod))))
    f = np.max(sum(np.sum(np.abs(k) ** 2, axis=0) for k in ks))
    gamma = np.linalg.norm(dagger(v) @ v - np.eye(d_c * d_b))
    a = np.sqrt((1 + gamma) * f)
    b = 2 * delta * a + delta ** 2
    drift = (1 + gamma) * b + (2 * gamma + gamma ** 2) * f
    rounding = (len(v) + max(d_a, d_c) * d_b + len(ops)) * np.finfo(float).eps * (
        (a + delta) ** 2 + (1 + gamma) * f)
    return b + (1 + gamma) * drift + rounding, ks, rounding


def _assert_gate_sound(ops, d_a, out, tol, reported):
    """The reported (residual, superop) of the gate against the exact kernel."""
    residual, superop = reported
    cm = certify_code_map(ops, d_a, out.d_b, frame=out.w)
    bound = subsystem._product_form_bound(ops, d_a, out)[0]
    if bound <= strict_tol(tol):
        assert residual == bound >= cm.residual
        kraus = _product_form_mirror(ops, d_a, out)[1]
        assert np.allclose(superop, _closed_form_superop(kraus), rtol=1e-13, atol=1e-15)
        assert np.max(np.linalg.norm(superop - cm.superop, axis=0)) <= residual
    else:
        assert np.array(residual).tobytes() == np.array(cm.residual).tobytes()
        assert superop.tobytes() == cm.superop.tobytes()
        assert not bound < cm.residual


@pytest.fixture
def gate_calls(monkeypatch):
    """Check every call of the gate, as the library reaches it, against the
    exact kernel, recording the reported residuals."""
    import subrec.correctability as correctability

    gate, calls = subsystem._certify_on_code, []

    def checked(ops, d_a, out, tol):
        before = ops.copy()
        reported = gate(ops, d_a, out, tol)
        assert ops.tobytes() == before.tobytes()
        _assert_gate_sound(ops, d_a, out, tol, reported)
        calls.append(reported[0])
        return reported

    for module in (recovery, correctability):
        monkeypatch.setattr(module, "_certify_on_code", checked)
    return calls


def test_product_form_bound_leaves_its_input_as_it_is():
    # one operator on a code with d_B = 1: the bound's copy of the stack in
    # (l, x) x (c, i) layout would otherwise be a view of the input itself
    ch, dec = planted_channel(2, 1, 6, 1, seed=3)
    ops = np.asarray(ch.kraus) @ dec.w
    before = ops.copy()
    bound = subsystem._product_form_bound(ops, dec.d_a, dec)[0]
    assert ops.tobytes() == before.tobytes()
    assert bound >= certify_code_map(ops, dec.d_a, dec.d_b, frame=dec.w).residual > 0


def _planted_corpus():
    # the certify instances, the planted codes of test_planted_codes and the
    # binary-unitary code, whose cooling correction has dim C = 2 > d_A
    cases = [planted_channel(4, 8, 40, 3, np.random.default_rng([1, 1, i])) for i in range(41)]
    cases += [planted_channel(d_a, 3, 4 * d_a + 6, m, seed=10 * d_a + m, unital=unital)
              for d_a in (1, 2, 3, 4) for unital in (False, True) for m in (1, 2, 5)]
    cases.append(demo_build(DemoSpec(name="binary-unitary", p=0.4,
                                     thetas=(0.5, 1.4, 2.9, 4.2), seed=2)))
    return [(ch, dec, recovery_to_correction(
        construct_recovery(ch, dec, check_correctable(ch, dec)), dec)) for ch, dec in cases]


def test_verify_correction_bound_on_the_planted_corpus(gate_calls):
    # building the corpus runs step 5 once per code, through the same gate
    corpus = _planted_corpus()
    assert len(gate_calls) == len(corpus)
    for ch, dec, correction in corpus:
        residual, _ = verify_correction(ch, dec, correction)
        assert residual <= 1e-12
    assert len(gate_calls) == 2 * len(corpus)
    # the cooling correction: many Kraus operators, each composed one
    assert corpus[-1][2].m > 1


def _discover_channels():
    # the discover workload's instances at seed 1, planted (2, 2) unital codes
    # at d = 12 drawn from default_rng([1, 3, i]), and collective rotation
    # noise on 6 to 9 qubits
    channels = [planted_channel(2, 2, 12, 3, np.random.default_rng([1, 3, i]), unital=True)[0]
                for i in range(17)]
    return channels + [KrausChannel(collective_rotation(n)) for n in (6, 7, 8, 9)]


def test_find_ucc_bound_on_the_discover_instances_and_collective_noise(gate_calls):
    reported = []
    for ch in _discover_channels():
        report = find_ucc(ch)
        assert report.subsystems and not report.contradictions
        reported += [entry.residual for entry in report.subsystems]
    # every reported correction residual is the bound, within strict_tol(1e-9)
    assert gate_calls == reported
    assert all(residual <= 1e-11 for residual in reported)


def test_check_noiseless_bound_on_the_blocks_of_enumerate_noiseless(gate_calls):
    # the noiseless blocks of E^dag ∘ E for planted unital codes, of F (x) id_B
    # for a random unital F, and the Schur-Weyl blocks of collective noise
    channels = [compose(dual(ch), ch) for ch in
                (planted_channel(2, 2, 12, 3, seed=s, unital=True)[0] for s in range(4))]
    f = random_unital_channel(4, 3, seed=3)
    channels.append(KrausChannel([np.kron(k, np.eye(16)) for k in f.kraus]))
    channels += [KrausChannel(collective_rotation(n)) for n in (4, 5, 6)]
    reported = []
    for ch in channels:
        found = enumerate_noiseless(ch)
        assert found.subsystems
        reported += found.residuals
    assert gate_calls == reported
    assert all(residual <= 1e-11 for residual in reported)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(log_kick=st.floats(-8, -2), seed=st.integers(0, 2**16),
       tol=st.sampled_from([1e-9, 1e-6, 1e-4]), shrink=st.sampled_from([1.0, 0.1, 0.01]))
@example(log_kick=-5.0, seed=0, tol=1e-4, shrink=1.0)
def test_kicked_corrections_report_a_sound_value(log_kick, seed, tol, shrink):
    # the correction of a kicked code, verified at its own tol: the bound is
    # the one written out above, and the reported value is sound either way
    ch, dec = _large_off_code(seed, 10.0 ** log_kick, shrink)
    cert = check_correctable(ch, dec, tol=tol)
    if not cert.passed:
        return
    try:
        correction = recovery_to_correction(construct_recovery(ch, dec, cert, tol=tol), dec,
                                            tol=tol)
    except SubrecError:
        return
    kw = np.asarray(ch.kraus) @ dec.w
    ops = (np.asarray(correction.kraus)[:, None] @ kw[None]).reshape(-1, *kw.shape[1:])
    bound = subsystem._product_form_bound(ops, dec.d_a, dec)[0]
    assert bound == pytest.approx(_product_form_mirror(ops, dec.d_a, dec)[0], rel=1e-6)
    _assert_gate_sound(ops, dec.d_a, dec, tol, verify_correction(ch, dec, correction, tol=tol))


def _kicked_on_the_code(eps):
    # a planted (2, 2) code whose Kraus operators get eps G_a P_AB after its
    # correction was built: the exact correction residual is about 5.5 eps,
    # the bound about 4.7 times that
    ch, dec = planted_channel(2, 2, 8, 3, seed=15)
    correction = recovery_to_correction(
        construct_recovery(ch, dec, check_correctable(ch, dec)), dec)
    rng = np.random.default_rng(1)
    kicks = [rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) for _ in ch.kraus]
    kicked = KrausChannel([k + eps * g @ dec.p_ab for k, g in zip(ch.kraus, kicks)],
                          require_tp=False, tol=1e-6)
    return kicked, dec, correction


def test_straddling_correction_reports_the_exact_kernel():
    # the bound exceeds strict_tol(1e-9) while the exact residual is within
    # it: the kernel's residual and superop are reported, bit for bit, and
    # the verdict at strict_tol(1e-9) is the exact one
    ch, dec, correction = _kicked_on_the_code(1e-10)
    kw = np.asarray(ch.kraus) @ dec.w
    ops = (np.asarray(correction.kraus)[:, None] @ kw[None]).reshape(-1, *kw.shape[1:])
    bound = subsystem._product_form_bound(ops, dec.d_a, dec)[0]
    cm = certify_code_map(ops, dec.d_a, dec.d_b, frame=dec.w)
    assert cm.residual <= strict_tol(1e-9) < bound
    residual, superop = verify_correction(ch, dec, correction)
    assert residual == cm.residual
    assert superop.tobytes() == cm.superop.tobytes()
    # at a looser tol the same bound is the reported value
    residual, superop = verify_correction(ch, dec, correction, tol=1e-8)
    assert residual == bound
    assert np.max(np.linalg.norm(superop - cm.superop, axis=0)) <= residual


def test_nan_correction_input_reports_the_kernels_nan():
    # a NaN entry makes the bound NaN, which fails the gate: the kernel runs,
    # and its NaN residual and superop are reported
    ch, dec, correction = _kicked_on_the_code(0.0)
    ch.kraus[1][3, 2] = np.nan
    kw = np.asarray(ch.kraus) @ dec.w
    ops = (np.asarray(correction.kraus)[:, None] @ kw[None]).reshape(-1, *kw.shape[1:])
    assert np.isnan(subsystem._product_form_bound(ops, dec.d_a, dec)[0])
    cm = certify_code_map(ops, dec.d_a, dec.d_b, frame=dec.w)
    residual, superop = verify_correction(ch, dec, correction)
    assert np.isnan(residual) and np.isnan(cm.residual)
    assert superop.tobytes() == cm.superop.tobytes()
    verdict = check_noiseless(ch, dec)
    assert np.isnan(verdict.residual) and not verdict.ok


def test_planted_corpus_never_runs_the_code_map_kernel(monkeypatch):
    # verify_correction on the planted corpus, find_ucc on the discover
    # instances and collective noise, and check_noiseless on the noiseless
    # blocks of E^dag ∘ E: every product-form bound passes, so no module
    # calls certify_code_map
    import sys

    corpus = _planted_corpus()
    channels = _discover_channels()[:17] + [KrausChannel(collective_rotation(n))
                                            for n in (6, 7, 8)]
    noiseless = []
    for s in range(4):
        ch, code = planted_channel(2, 2, 12, 3, seed=s, unital=True)
        noiseless.append((compose(dual(ch), ch), code))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return certify_code_map(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "subrec" or name.startswith("subrec.")) \
                and getattr(module, "certify_code_map", None) is certify_code_map:
            monkeypatch.setattr(module, "certify_code_map", counted)
    for ch, dec, correction in corpus:
        assert verify_correction(ch, dec, correction)[0] <= 1e-12
    for ch in channels:
        assert find_ucc(ch).subsystems
    for ch, dec in noiseless:
        assert check_noiseless(ch, dec).ok
    assert calls == []
