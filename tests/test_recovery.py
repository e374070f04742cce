import dataclasses

import numpy as np
import pytest

from subrec import (
    CertificateMismatch,
    DemoSpec,
    KrausChannel,
    NotTracePreserving,
    RecoveryResult,
    SubsystemDecomposition,
    check_correctable,
    construct_recovery,
    demo_build,
    embed_product,
    planted_channel,
    recovery_to_correction,
    verify_correction,
)
from subrec.linalg import (acceptance_tol, dagger, hermitian_eig, operator_basis,
                          orthonormal_complement, polar_isometry_on_support, strict_tol)
from subrec.random_ops import haar_isometry, haar_unitary

from oracles import extract_common_factor


def build(ch, dec, tol=1e-9):
    cert = check_correctable(ch, dec, tol=tol)
    assert cert.passed
    return construct_recovery(ch, dec, cert, tol=tol)


def test_single_kraus_unitary_channel():
    u0 = haar_unitary(4, seed=0)
    ch = KrausChannel([u0])
    dec = SubsystemDecomposition.trivial(2, 2)
    res = build(ch, dec)
    assert res.residual < 1e-10
    assert res.dim_c == 2
    # recovery action equals conjugation by U0^dag (compare actions,
    # unitaries are only fixed up to completion freedom and phase)
    for x in operator_basis(4):
        lhs = res.u_recovery @ ch.apply(x) @ dagger(res.u_recovery)
        assert np.linalg.norm(lhs - x) < 1e-10
    # F_{C|A} is the identity map
    assert np.linalg.norm(res.f_ca_superop - np.eye(4)) < 1e-9


def test_swap_recovery_acts_as_swap():
    ch, dec = demo_build(DemoSpec(name="swap"))
    res = build(ch, dec)
    assert res.residual < 1e-10
    swap = ch.kraus[0]
    for x in operator_basis(4):
        lhs = res.u_recovery @ x @ dagger(res.u_recovery)
        rhs = swap @ x @ dagger(swap)  # swap is its own inverse
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_binary_unitary_code_recovery():
    ch, dec = demo_build(DemoSpec(name="binary-unitary", p=0.4,
                                  thetas=(0.5, 1.4, 2.9, 4.2), seed=2))
    res = build(ch, dec)
    assert res.residual < 1e-9
    # dim C = rank F = 2 exceeds d_A = 1: the code moves to a genuinely
    # larger subsystem, U ∘ E(sigma_B) = omega_C (x) sigma_B
    assert res.dim_c == 2
    basis_b = operator_basis(2)
    outputs = []
    w_c = res.c_subsystem.w
    for sig_b in basis_b:
        out = res.u_recovery @ ch.apply(embed_product(dec, np.eye(1), sig_b)) \
            @ dagger(res.u_recovery)
        outputs.append(dagger(w_c) @ out @ w_c)
    omega, worst = extract_common_factor(outputs, 2, 2, basis_b)
    assert worst < 1e-9
    assert abs(np.trace(omega) - 1.0) < 1e-9
    assert np.min(np.linalg.eigvalsh((omega + dagger(omega)) / 2)) > -1e-9


@pytest.mark.parametrize("dims", [(1, 2, 4, 2), (2, 2, 4, 2), (1, 2, 6, 3),
                                  (2, 2, 8, 3), (1, 4, 8, 3)])
def test_planted_recovery_invariants(dims):
    d_a, d_b, dim, m = dims
    ch, dec = planted_channel(d_a, d_b, dim, m, seed=7)
    res = build(ch, dec)
    assert res.residual < 1e-8
    u = res.u_recovery
    assert np.linalg.norm(dagger(u) @ u - np.eye(dim)) < 1e-10
    # trace preservation of F_{C|A}: sum_a Tr(D_aa) = d_A
    total = sum(np.trace(d_aa).real for _, d_aa, _ in res.d_blocks)
    assert abs(total - d_a) < 1e-9
    # dimension accounting: sum_a r_a * d_B <= dim
    assert sum(r_a for _, _, r_a in res.d_blocks) * d_b <= dim
    assert res.orthogonality_residual < 1e-8
    assert res.g_action_residual < 1e-8
    # closed-form Kraus list agrees with the extracted map on I_A
    f_ca_ident = sum(k @ np.eye(d_a) @ dagger(k) for k in res.f_ca_kraus)
    d_c = res.dim_c
    extracted_ident = (res.f_ca_superop @ np.eye(d_a).flatten(order="F")
                       ).reshape(d_c, d_c, order="F")
    assert np.linalg.norm(f_ca_ident - extracted_ident) < 1e-8


def test_certificate_mismatch_rejected():
    ch, dec = planted_channel(1, 2, 4, 2, seed=8)
    ch2, dec2 = planted_channel(1, 2, 4, 2, seed=9)
    cert = check_correctable(ch, dec)
    with pytest.raises(CertificateMismatch):
        construct_recovery(ch2, dec2, cert)


def test_failed_certificate_rejected():
    from subrec.random_ops import haar_isometry, random_channel
    ch = random_channel(4, 3, seed=10)
    dec = SubsystemDecomposition(4, 1, 2, haar_isometry(4, 2, seed=11))
    cert = check_correctable(ch, dec)
    assert not cert.passed
    with pytest.raises(CertificateMismatch):
        construct_recovery(ch, dec, cert)


def test_correction_one_dimensional_a():
    ch, dec = planted_channel(1, 2, 6, 3, seed=12)
    res = build(ch, dec)
    corr = recovery_to_correction(res, dec)
    # R ∘ E(sigma_B) returns sigma_B embedded at AB
    for sig_b in operator_basis(2):
        out = corr.apply(ch.apply(embed_product(dec, np.eye(1), sig_b)))
        assert np.linalg.norm(out - embed_product(dec, np.eye(1), sig_b)) < 1e-10


@pytest.mark.parametrize("dims", [(2, 2, 8, 3), (1, 2, 6, 3), (2, 3, 8, 2)])
def test_correction_factors_and_repeats(dims):
    d_a, d_b, dim, m = dims
    ch, dec = planted_channel(d_a, d_b, dim, m, seed=13)
    res = build(ch, dec)
    corr = recovery_to_correction(res, dec)
    residual, _ = verify_correction(ch, dec, corr)
    assert residual < 1e-8
    # repeatability: noise + correction twice still preserves the B factor
    rng = np.random.default_rng(14)
    g = rng.normal(size=(d_a, d_a)) + 1j * rng.normal(size=(d_a, d_a))
    sigma_a = g @ dagger(g)
    sigma_a /= np.trace(sigma_a).real
    g = rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b))
    sigma_b = g @ dagger(g)
    sigma_b /= np.trace(sigma_b).real
    state = embed_product(dec, sigma_a, sigma_b)
    for _ in range(2):
        state = corr.apply(ch.apply(state))
        # the corrected state is exactly (some A state) (x) sigma_B
        compressed = dec.compress(state)
        a_marg = np.trace(compressed.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)
        assert abs(np.trace(a_marg).real - 1.0) < 1e-8
        assert np.linalg.norm(compressed - np.kron(a_marg, sigma_b)) < 1e-8


def test_correction_unitary_when_dims_match():
    # planted channels have rank F = d_A, so R' completes to a unitary
    ch, dec = planted_channel(2, 2, 8, 3, seed=15)
    res = build(ch, dec)
    assert res.dim_c == dec.d_a
    corr = recovery_to_correction(res, dec)
    assert corr.m == 1
    u = corr.kraus[0]
    assert np.linalg.norm(dagger(u) @ u - np.eye(8)) < 1e-9


def test_duplicated_kraus_drops_zero_blocks():
    # duplicating Kraus operators doubles m but adds only zero blocks,
    # which the construction must drop from the C subsystem
    ch0, dec = planted_channel(2, 2, 8, 2, seed=21)
    dup = KrausChannel([np.sqrt(0.5) * k for k in ch0.kraus for _ in range(2)])
    cert = check_correctable(dup, dec)
    assert cert.passed
    res = construct_recovery(dup, dec, cert)
    assert res.residual < 1e-8
    assert sum(r_a for _, _, r_a in res.d_blocks) == 2
    assert len(res.d_blocks) < dup.m
    corr = recovery_to_correction(res, dec)
    resid, _ = verify_correction(dup, dec, corr)
    assert resid < 1e-8


def test_recovery_alone_is_not_repeatable():
    # seeded witness: applying only U_recovery leaves the state in CB,
    # and a second noise round then destroys the B factor
    ch, dec = planted_channel(1, 2, 6, 3, seed=16)
    res = build(ch, dec)
    rng = np.random.default_rng(17)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sigma_b = g @ dagger(g)
    sigma_b /= np.trace(sigma_b).real
    state = embed_product(dec, np.eye(1), sigma_b)
    once = res.u_recovery @ ch.apply(state) @ dagger(res.u_recovery)
    # after recovery the state lives in the CB frame, not AB
    twice = res.u_recovery @ ch.apply(once) @ dagger(res.u_recovery)
    w_c = res.c_subsystem.w
    compressed = dagger(w_c) @ twice @ w_c
    d_c = res.dim_c
    b_marg = np.trace(compressed.reshape(d_c, 2, d_c, 2), axis1=0, axis2=2)
    norm = np.trace(b_marg).real
    assert np.linalg.norm(b_marg / norm - sigma_b) > 1e-3


def _polar_columns(ch, dec, cert, tol=1e-9):
    # reference for step 4: ambient G_a and its polar factor against
    # W (sqrt(D_aa) (x) I_B) W^dag, then V_a W (|l> (x) |k>) for live l
    d, d_a, d_b, w = dec.dim, dec.d_a, dec.d_b, dec.w
    lam, q = hermitian_eig(cert.f_matrix, tol=tol)
    lam = np.maximum(lam, 0.0)
    u_mix = dagger(q)
    cols = []
    for a in range(ch.m):
        g_a = ch.kraus[a] @ (np.eye(d) - dec.p_ab)
        for b in range(ch.m):
            u_ab = u_mix[a * d_a:(a + 1) * d_a, b * d_a:(b + 1) * d_a]
            g_a = g_a + ch.kraus[b] @ w @ np.kron(dagger(u_ab), np.eye(d_b)) @ dagger(w)
        block = lam[a * d_a:(a + 1) * d_a]
        live = block > tol * max(1.0, lam[0])
        if not live.any():
            continue
        s = w @ np.kron(np.diag(np.sqrt(block)), np.eye(d_b)) @ dagger(w)
        v_a = polar_isometry_on_support(g_a @ dec.p_ab, s, tol=1e-7)
        cols.append((v_a @ w).reshape(d, d_a, d_b)[:, live].reshape(d, -1))
    return np.hstack(cols)


@pytest.mark.parametrize("dims", [(1, 2, 6, 3), (2, 2, 8, 3), (3, 2, 9, 3), (3, 3, 12, 2)])
def test_closed_form_images_match_polar_factor(dims):
    d_a, d_b, dim, m = dims
    ch, dec = planted_channel(d_a, d_b, dim, m, seed=80 + dim)
    cert = check_correctable(ch, dec)
    res = construct_recovery(ch, dec, cert)
    expected = _polar_columns(ch, dec, cert)
    got = dagger(res.u_recovery)[:, :expected.shape[1]]
    assert expected.shape[1] == res.dim_c * d_b
    assert np.max(np.abs(got - expected)) < 1e-10


def test_closed_form_images_match_polar_factor_cooling():
    ch, dec = demo_build(DemoSpec(name="binary-unitary", p=0.4,
                                  thetas=(0.5, 1.4, 2.9, 4.2), seed=2))
    cert = check_correctable(ch, dec)
    res = construct_recovery(ch, dec, cert)
    expected = _polar_columns(ch, dec, cert)
    assert res.dim_c == 2 and expected.shape[1] == 2 * dec.d_b
    assert np.max(np.abs(dagger(res.u_recovery)[:, :expected.shape[1]] - expected)) < 1e-10


@pytest.mark.parametrize("dims", [(1, 2, 6, 3), (2, 2, 8, 3), (3, 2, 12, 3), (2, 4, 20, 4)])
def test_f_ca_kraus_reproduces_extracted_map(dims):
    d_a, d_b, dim, m = dims
    ch, dec = planted_channel(d_a, d_b, dim, m, seed=90 + dim)
    res = build(ch, dec)
    assert len(res.f_ca_kraus) == m
    assert all(k.shape == (res.dim_c, d_a) for k in res.f_ca_kraus)
    closed = sum(np.kron(k.conj(), k) for k in res.f_ca_kraus)
    assert np.linalg.norm(closed - res.f_ca_superop) < 1e-12
    # and on every matrix unit of A, as a Kraus map
    for x in operator_basis(d_a):
        extracted = (res.f_ca_superop @ x.flatten(order="F")).reshape(
            res.dim_c, res.dim_c, order="F")
        assert np.linalg.norm(sum(k @ x @ dagger(k) for k in res.f_ca_kraus)
                              - extracted) < 1e-12


def _g_action_loop(ch, dec, cert, scale=1.0):
    # the step 3 definition written out: G_a W = sum_b E_b W (U_ab^dag (x) I_B),
    # then max over (k, l) of ||sum_a G_a W (I_A (x) |k><l|) (G_a W)^dag - same for E_a||
    d_a, d_b, w = dec.d_a, dec.d_b, dec.w
    _, q = hermitian_eig(cert.f_matrix)
    u_mix = scale * dagger(q)
    gw = [sum(ch.kraus[b] @ w @ np.kron(dagger(u_mix[a * d_a:(a + 1) * d_a,
                                                       b * d_a:(b + 1) * d_a]), np.eye(d_b))
              for b in range(ch.m)) for a in range(ch.m)]
    ew = [k @ w for k in ch.kraus]
    worst = []
    for k in range(d_b):
        for l in range(d_b):
            unit_b = np.zeros((d_b, d_b))
            unit_b[k, l] = 1.0
            x = np.kron(np.eye(d_a), unit_b)
            diff = sum(g @ x @ dagger(g) for g in gw) - sum(e @ x @ dagger(e) for e in ew)
            worst.append(np.linalg.norm(diff))
    return float(np.max(worst))


@pytest.mark.parametrize("dims", [(1, 2, 6, 3), (2, 2, 8, 3), (3, 2, 12, 3), (1, 5, 12, 3),
                                  (2, 3, 9, 2)])
@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9])
def test_g_action_residual_matches_written_out_loop(dims, scale, monkeypatch):
    # with a unitary remix U the step 3 mismatch is rounding; scaling U by
    # 1 + 1e-9 (inside every gate) makes it about 2e-9 ||sum_a E_a E_a^dag||
    import subrec.recovery as recovery

    def scaled_eig(m, tol):
        w, q = hermitian_eig(m, tol=tol)
        return w, scale * q

    monkeypatch.setattr(recovery, "hermitian_eig", scaled_eig)
    d_a, d_b, dim, m = dims
    ch, dec = planted_channel(d_a, d_b, dim, m, seed=70 + dim)
    cert = check_correctable(ch, dec)
    res = construct_recovery(ch, dec, cert)
    expected = _g_action_loop(ch, dec, cert, scale)
    if scale == 1.0:
        assert res.g_action_residual < 1e-13 and expected < 1e-13
    else:
        assert expected > 1e-10
    assert abs(res.g_action_residual - expected) <= 1e-6 * expected + 1e-14


@pytest.mark.parametrize("dims", [(1, 5, 12, 3), (1, 4, 16, 2)])
def test_g_action_residual_matches_loop_off_correctability(dims, monkeypatch):
    # for a correctable code E(k)^dag E(k) is the same for every k, so the
    # step 3 mismatch of a scaled remix is the same in every row; a channel
    # kicked off correctability and accepted at a loose tol makes it vary
    # with k (on this draw the worst row is not the first of its chunk), so
    # every row of a chunk of rows must count
    import subrec.recovery as recovery

    scale = 1.0 + 1e-6

    def scaled_eig(m, tol):
        w, q = hermitian_eig(m, tol=tol)
        return w, scale * q

    monkeypatch.setattr(recovery, "hermitian_eig", scaled_eig)
    d_a, d_b, dim, m = dims
    ch, dec = planted_channel(d_a, d_b, dim, m, seed=90 + dim)
    rng = np.random.default_rng(92)
    kicked = KrausChannel([k + 1e-2 * (rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape))
                           for k in ch.kraus], require_tp=False, tol=0.1)
    cert = check_correctable(kicked, dec, tol=0.1)
    assert cert.passed
    res = construct_recovery(kicked, dec, cert, tol=0.1)
    expected = _g_action_loop(kicked, dec, cert, scale)
    assert expected > 1e-8
    assert abs(res.g_action_residual - expected) <= 1e-6 * expected


def _frame_result(dim, rank_c, d_b, seed):
    # a recovery whose C (x) B frame is a Haar isometry, not the coordinate
    # frame construct_recovery uses: recovery_to_correction must pair any frame
    w_c = haar_isometry(dim, rank_c * d_b, seed=seed)
    return RecoveryResult(u_recovery=haar_unitary(dim, seed=seed + 1),
                          c_subsystem=SubsystemDecomposition(dim, rank_c, d_b, w_c),
                          f_ca_kraus=[], f_ca_superop=np.zeros((0, 0)), d_blocks=[],
                          residual=0.0, g_action_residual=0.0, orthogonality_residual=0.0)


def test_unitary_correction_maps_a_general_c_frame_onto_w():
    dec = SubsystemDecomposition(12, 2, 3, haar_isometry(12, 6, seed=31))
    res = _frame_result(12, 2, 3, seed=32)
    correction = recovery_to_correction(res, dec)
    assert correction.m == 1
    r_prime = correction.kraus[0] @ dagger(res.u_recovery)
    assert np.linalg.norm(r_prime @ res.c_subsystem.w - dec.w) < 1e-12
    assert np.linalg.norm(dagger(r_prime) @ r_prime - np.eye(12)) < 1e-12


def test_cooling_correction_of_a_general_c_frame_matches_written_out_loop():
    d, d_a, d_b, rank_c = 12, 2, 2, 3
    dec = SubsystemDecomposition(d, d_a, d_b, haar_isometry(d, d_a * d_b, seed=33))
    res = _frame_result(d, rank_c, d_b, seed=34)
    w, w_c = dec.w, res.c_subsystem.w
    expected = []
    for g in range(2):  # C indices {0, 1} and {2}
        op = np.zeros((d, d), dtype=complex)
        for i in range(d_a):
            c = g * d_a + i
            if c < rank_c:
                for k in range(d_b):
                    op += np.outer(w[:, i * d_b + k], w_c[:, c * d_b + k].conj())
        expected.append(op)
    expected += [np.outer(w[:, 0], q.conj()) for q in orthonormal_complement(w_c @ dagger(w_c))]
    correction = recovery_to_correction(res, dec)
    assert correction.m == len(expected) == 2 + d - rank_c * d_b
    for op, loop_op in zip(correction.kraus, expected):
        assert np.max(np.abs(op - loop_op @ res.u_recovery)) < 1e-12


def test_loosely_accepted_code_gets_a_correction_judged_at_acceptance_tol():
    # a 1e-6 kick passes check_correctable and construct_recovery at
    # tol = 1e-4; the completion amplifies it to a TP defect of 1.7e-3 in
    # the assembled unitary, above strict_tol(1e-4, sqrt(40)) but far
    # below acceptance_tol(1e-4, sqrt(40))
    tol = 1e-4
    ch0, dec = planted_channel(4, 8, 40, 3, seed=4)
    rng = np.random.default_rng(1004)
    ch = KrausChannel([k + 1e-6 * (rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape))
                       for k in ch0.kraus], require_tp=False, tol=tol)
    res = build(ch, dec, tol=tol)
    corr = recovery_to_correction(res, dec, tol=tol)
    assert strict_tol(tol, np.sqrt(40)) < corr.tp_defect <= acceptance_tol(tol, np.sqrt(40))
    residual, _ = verify_correction(ch, dec, corr, tol=tol)
    assert residual <= acceptance_tol(tol)


@pytest.mark.parametrize("cooling", [False, True])
def test_correction_from_a_scaled_recovery_is_not_trace_preserving(cooling):
    if cooling:
        ch, dec = demo_build(DemoSpec(name="binary-unitary", p=0.4,
                                      thetas=(0.5, 1.4, 2.9, 4.2), seed=2))
    else:
        ch, dec = planted_channel(2, 2, 8, 3, seed=15)
    res = build(ch, dec)
    assert (res.dim_c > dec.d_a) == cooling
    scaled = dataclasses.replace(res, u_recovery=1.01 * res.u_recovery)
    with pytest.raises(NotTracePreserving):
        recovery_to_correction(scaled, dec)
