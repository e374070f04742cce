import dataclasses
import tracemalloc

import numpy as np
import pytest

from subrec import (
    CertificateMismatch,
    DemoSpec,
    KrausChannel,
    NotTracePreserving,
    RecoveryResult,
    SubsystemDecomposition,
    certify_code_map,
    check_correctable,
    construct_recovery,
    demo_build,
    embed_product,
    find_ucc,
    planted_channel,
    recovery_to_correction,
    verify_correction,
)
from subrec.linalg import (DEFAULT_TOL, acceptance_tol, complete_isometry, dagger,
                          hermitian_eig, operator_basis, orthonormal_complement,
                          polar_isometry_on_support, strict_tol)
from subrec.random_ops import haar_isometry, haar_unitary
from oracles import extract_common_factor, remix_mismatch


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


@pytest.mark.parametrize("case", ["unital", "cooling"])
def test_reported_operators_equal_those_of_a_fully_canonical_eigenbasis(case, monkeypatch):
    # the builder makes only F's live clusters canonical, and every reported
    # operator reads only their columns: byte for byte what it gives on
    # hermitian_eig's eigenbasis.  The planted unital code has a d_A-fold
    # live cluster and a find_ucc correction; the binary-unitary code has
    # dim C = 2 > d_A = 1
    import subrec.recovery as recovery

    if case == "unital":
        ch, dec = planted_channel(2, 2, 8, 3, seed=5, unital=True)
    else:
        ch, dec = demo_build(DemoSpec(name="binary-unitary", p=0.4,
                                      thetas=(0.5, 1.4, 2.9, 4.2), seed=2))
    cert = check_correctable(ch, dec)

    def reported():
        res = construct_recovery(ch, dec, cert)
        report = find_ucc(ch, seed=0)
        return [res.u_recovery, *res.f_ca_kraus, res.c_subsystem.w,
                *recovery_to_correction(res, dec).kraus,
                *(entry.u_correction for entry in report.subsystems)]

    ours = reported()
    monkeypatch.setattr(recovery, "_diagonalize_f", hermitian_eig)
    theirs = reported()
    assert len(ours) == len(theirs) == (8 if case == "unital" else 6)
    assert [x.tobytes() for x in ours] == [x.tobytes() for x in theirs]


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
    # the step 3 definition written out, on U = scale q^dag for an eigenbasis q of F
    _, q = hermitian_eig(cert.f_matrix)
    return remix_mismatch(ch, dec, scale * dagger(q))


def _g_action_bound(ch, dec, q):
    # the reported step 3 value written out: ||q q^dag - I||_F max_k ||E(k)||_F^2,
    # E(k) the columns E_a W(|i> (x) |k>) of the B index k
    ew = (np.asarray(ch.kraus) @ dec.w).reshape(ch.m, ch.dim, dec.d_a, dec.d_b)
    blocks = max(np.linalg.norm(ew[..., k]) ** 2 for k in range(dec.d_b))
    return np.linalg.norm(q @ dagger(q) - np.eye(len(q))) * blocks


def _scaled_eig(monkeypatch, scale):
    import subrec.recovery as recovery

    eig = recovery._diagonalize_f

    def scaled_eig(m, tol):
        w, q = eig(m, tol)
        return w, scale * q

    monkeypatch.setattr(recovery, "_diagonalize_f", scaled_eig)
    return recovery


def _assert_step_3_bound(ch, dec, cert, tol, recovery):
    # the value is the written-out bound, the same bits from the caller's own
    # certificate and from the certificate of an equal copy of the channel
    copy = KrausChannel(ch.kraus, require_tp=False, tol=ch.tol)
    own = construct_recovery(ch, dec, cert, tol=tol)
    res = construct_recovery(ch, dec, check_correctable(copy, dec, tol=tol), tol=tol)
    assert own.g_action_residual == res.g_action_residual
    q = recovery._build_recovery(ch, dec, cert, tol).q
    assert own.g_action_residual == pytest.approx(_g_action_bound(ch, dec, q), rel=1e-12)
    return own.g_action_residual


@pytest.mark.parametrize("dims", [(1, 2, 6, 3), (2, 2, 8, 3), (3, 2, 12, 3), (1, 5, 12, 3),
                                  (2, 3, 9, 2)])
@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9])
def test_g_action_residual_matches_written_out_loop(dims, scale, monkeypatch):
    # with a unitary remix U the step 3 mismatch is rounding; scaling U by
    # 1 + 1e-9 (inside every gate) makes it about 2e-9 ||sum_a E_a E_a^dag||.
    # The reported value is the bound ||q q^dag - I||_F max_k ||E(k)||_F^2,
    # which is not below the written-out definition
    recovery = _scaled_eig(monkeypatch, scale)
    d_a, d_b, dim, m = dims
    ch, dec = planted_channel(d_a, d_b, dim, m, seed=70 + dim)
    cert = check_correctable(ch, dec)
    got = _assert_step_3_bound(ch, dec, cert, 1e-9, recovery)
    expected = _g_action_loop(ch, dec, cert, scale)
    if scale == 1.0:
        assert got < 1e-13 and expected < 1e-13
    else:
        assert expected > 1e-10
        assert got >= expected


@pytest.mark.parametrize("dims", [(1, 5, 12, 3), (1, 4, 16, 2)])
def test_g_action_residual_matches_loop_off_correctability(dims, monkeypatch):
    # for a correctable code E(k)^dag E(k) is the same for every k, so the
    # step 3 mismatch of a scaled remix is the same in every row; a channel
    # kicked off correctability and accepted at a loose tol makes ||E(k)||_F
    # vary with k, so the bound must take the largest block
    recovery = _scaled_eig(monkeypatch, 1.0 + 1e-6)
    d_a, d_b, dim, m = dims
    ch, dec = planted_channel(d_a, d_b, dim, m, seed=90 + dim)
    rng = np.random.default_rng(92)
    kicked = KrausChannel([k + 1e-2 * (rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape))
                           for k in ch.kraus], require_tp=False, tol=0.1)
    cert = check_correctable(kicked, dec, tol=0.1)
    assert cert.passed
    got = _assert_step_3_bound(kicked, dec, cert, 0.1, recovery)
    expected = _g_action_loop(kicked, dec, cert, 1.0 + 1e-6)
    assert expected > 1e-8
    assert got >= expected


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


def test_map_vanishing_on_the_code_names_the_empty_c_subsystem():
    # every pair factors (as zero), so the code passes check_correctable, but
    # F = 0 leaves no output subsystem C to recover into
    ch = KrausChannel([np.zeros((4, 4))] * 2, require_tp=False)
    dec = SubsystemDecomposition.trivial(2, 2)
    cert = check_correctable(ch, dec)
    assert cert.passed
    with pytest.raises(CertificateMismatch, match="output subsystem C is empty"):
        construct_recovery(ch, dec, cert)


@pytest.mark.parametrize("tol", [1e-9, 1e-4])
def test_correction_judges_itself_trace_preserving_at_its_acceptance(tol):
    # the returned channel carries the tolerance it was accepted at, so its
    # own is_trace_preserving agrees with recovery_to_correction
    cases = [planted_channel(2, 2, 8, 3, seed=15), planted_channel(4, 8, 40, 3, seed=4),
             demo_build(DemoSpec(name="binary-unitary", p=0.4,
                                 thetas=(0.5, 1.4, 2.9, 4.2), seed=2))]
    rng = np.random.default_rng(1004)
    ch0, dec = cases[1]
    cases.append((KrausChannel([k + 1e-6 * (rng.normal(size=k.shape)
                                            + 1j * rng.normal(size=k.shape))
                                for k in ch0.kraus], require_tp=False, tol=tol), dec))
    for ch, dec in cases:
        if not check_correctable(ch, dec, tol=tol).passed:
            continue
        corr = recovery_to_correction(build(ch, dec, tol=tol), dec, tol=tol)
        assert corr.is_trace_preserving
        assert corr.tol == acceptance_tol(tol)
        assert corr.tp_defect <= acceptance_tol(tol, np.sqrt(corr.dim))


@pytest.mark.parametrize("dims", [(1, 2, 6, 3), (2, 2, 8, 3), (3, 2, 12, 3), (2, 4, 20, 4)])
def test_public_recovery_is_the_builder_plus_its_two_certificates(dims):
    # construct_recovery adds steps 3 and 5 to the builder find_ucc runs,
    # and changes nothing the builder made
    import subrec.recovery as recovery

    d_a, d_b, dim, m = dims
    ch, dec = planted_channel(d_a, d_b, dim, m, seed=110 + dim)
    cert = check_correctable(ch, dec)
    res = construct_recovery(ch, dec, cert)
    built = recovery._build_recovery(ch, dec, cert, 1e-9)
    assert np.array_equal(res.u_recovery, built.u_recovery)
    assert np.array_equal(res.c_subsystem.w, built.c_subsystem.w)
    assert (res.dim_c, res.c_subsystem.d_b) == (built.c_subsystem.d_a, d_b)
    assert all(np.array_equal(a, b) for a, b in zip(res.f_ca_kraus, built.f_ca_kraus))
    assert res.orthogonality_residual == built.orthogonality_residual
    cm = certify_code_map(res.u_recovery @ (np.asarray(ch.kraus) @ dec.w), d_a, d_b,
                          frame=res.c_subsystem.w)
    assert np.array_equal(res.f_ca_superop, cm.superop) and res.residual == cm.residual
    assert recovery_to_correction(res, dec).kraus[0].tobytes() == recovery_to_correction(
        built, dec, 1e-9).kraus[0].tobytes()


def test_step_3_peak_memory_at_the_ucc_complement_block():
    # the (1, d - 8) complement of a planted (2, 4) code at d = 128, m = 8:
    # step 3 is one reduction over the stack E_a W, so the whole
    # construction stays at the bound of its step 5 kernel call (m + dim C
    # = 9 columns of length d per row), on the caller's own certificate
    # and on that of an equal copy of the channel, which runs the exact
    # step 2 gate
    d, m = 128, 8
    n = d - 8
    ch, dec = planted_channel(2, 4, d, m, seed=1, unital=True)
    block = SubsystemDecomposition(d, 1, n, complete_isometry(dec.w, 1e-9)[:, 8:])
    results = []
    for cert in (check_correctable(ch, block), check_correctable(KrausChannel(ch.kraus), block)):
        assert cert.passed
        tracemalloc.start()
        try:
            results.append(construct_recovery(ch, block, cert))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (m + 1 + min(d, m + 1)) * n * d * 16
    own, res = results
    assert res.g_action_residual < 1e-12 and res.residual < 1e-10
    assert own.g_action_residual == res.g_action_residual


def _gate_row_by_row(ch, dec, cert):
    # steps 1 and 2 as construct_recovery writes them, on the builder's own
    # eigenbasis of F, then the Gram blocks of the orthogonality gate one
    # Kraus row at a time, less kron(D_aa, I_B)
    from subrec.recovery import _build_recovery

    d, d_a, d_b, m = ch.dim, dec.d_a, dec.d_b, ch.m
    lam, _ = hermitian_eig(cert.f_matrix)
    q = _build_recovery(ch, dec, cert, DEFAULT_TOL).q
    lam = np.maximum(lam, 0.0)
    u4 = dagger(q).reshape(m, d_a, m, d_a)
    ew = (np.asarray(ch.kraus) @ dec.w).reshape(m, d, d_a, d_b)
    gw = np.tensordot(u4.conj(), ew, axes=([2, 3], [0, 2])).transpose(0, 2, 1, 3)
    gw = gw.reshape(m, d, d_a * d_b)
    worst = []
    for a in range(m):
        grams = dagger(gw[a]) @ gw
        grams[a] -= np.kron(np.diag(lam[a * d_a:(a + 1) * d_a]), np.eye(d_b))
        worst.append(np.max(np.linalg.norm(grams, axis=(1, 2))))
    return float(np.max(worst))


@pytest.mark.parametrize("shape", [(4, 8, 40, 3), (4, 16, 80, 8), "complement", "ranges"])
def test_grouped_orthogonality_gate_matches_row_by_row_loop_bit_for_bit(shape):
    # certify's shape (one group under the 2^16 floor), groups of two rows,
    # and the (1, 248) complement block at d = 256, m = 8 (one row per group);
    # a planted F has rank d_A, so only D_00 is nonzero: m = 4 orthogonal
    # ranges with n = 74 (groups of two rows) give every block its own D_aa.
    # The gate runs on the certificate of an equal copy of the channel, which
    # takes the exact kernel; the own certificate's bound is not below it
    if shape == "complement":
        ch, code = planted_channel(2, 4, 256, 8, seed=1, unital=True)
        dec = SubsystemDecomposition(256, 1, 248, complete_isometry(code.w, 1e-9)[:, 8:])
    elif shape == "ranges":
        ch, dec = _orthogonal_ranges_case(296, 74, (0.4, 0.3, 0.2, 0.1), seed=45)
    else:
        ch, dec = planted_channel(*shape, seed=7)
    cert = check_correctable(ch, dec)
    res = construct_recovery(ch, dec, check_correctable(KrausChannel(ch.kraus), dec))
    assert res.orthogonality_residual == _gate_row_by_row(ch, dec, cert)
    own = construct_recovery(ch, dec, cert)
    assert own.orthogonality_residual >= res.orthogonality_residual


def _count_completions(monkeypatch):
    import subrec.recovery as recovery

    calls = []

    def counted(v, tol):
        calls.append(v.shape)
        return complete_isometry(v, tol)

    monkeypatch.setattr(recovery, "complete_isometry", counted)
    return calls


def _orthogonal_ranges_case(dim, d_b, weights, seed):
    # Kraus operators sqrt(p_a) V S^a W_0 send a (1, d_B) code, the first d_B
    # columns of W_0^dag, to the mutually orthogonal ranges V S^a W_0 W (S
    # shifts by d_B): F = diag(p_a), so dim C = m > d_A = 1, every block a has
    # a nonzero D_aa, and m d_B < dim leaves complement rows for w_0
    v, w0 = haar_unitary(dim, seed=seed), haar_unitary(dim, seed=seed + 1)
    kraus = [np.sqrt(p) * v @ np.roll(np.eye(dim), a * d_b, axis=0) @ w0
             for a, p in enumerate(weights)]
    return KrausChannel(kraus), SubsystemDecomposition(dim, 1, d_b, dagger(w0)[:, :d_b])


@pytest.mark.parametrize("cooling", [False, True])
def test_correction_of_the_builders_frame_skips_its_completion(cooling, monkeypatch):
    # the builder's C frame is the leading coordinate frame, whose completion
    # is I: only W (when dim C = d_A) is completed; a general frame still is
    ch, dec = _orthogonal_ranges_case(12, 3, (0.3, 0.7), seed=40) if cooling else planted_channel(
        4, 8, 40, 3, seed=41)
    res = build(ch, dec)
    assert (res.dim_c > dec.d_a) == cooling
    calls = _count_completions(monkeypatch)
    recovery_to_correction(res, dec)
    assert calls == ([] if cooling else [dec.w.shape])
    calls.clear()
    general = _frame_result(ch.dim, res.dim_c, dec.d_b, seed=42)
    recovery_to_correction(general, dec)
    assert calls == [general.c_subsystem.w.shape] + ([] if cooling else [dec.w.shape])


@pytest.mark.parametrize("cooling", [False, True])
def test_correction_of_the_builders_frame_matches_its_completion_bit_for_bit(cooling):
    # the pairing written out with the Gram-Schmidt completion u_c of the C
    # frame, which the correction no longer forms
    ch, dec = _orthogonal_ranges_case(40, 8, (0.25, 0.75), seed=43) if cooling else planted_channel(
        4, 8, 40, 3, seed=44)
    res = build(ch, dec)
    w, w_c = dec.w, res.c_subsystem.w
    u_c = complete_isometry(w_c, 1e-9)
    if cooling:
        n = dec.d_a * dec.d_b
        expected = [w[:, :block.shape[1]] @ dagger(block)
                    for block in (w_c[:, s:s + n] for s in range(0, w_c.shape[1], n))]
        expected += [np.outer(w[:, 0], q) for q in u_c[:, w_c.shape[1]:].T.conj()]
        assert len(expected) > 2
    else:
        expected = [complete_isometry(w, 1e-9) @ dagger(u_c)]
    correction = recovery_to_correction(res, dec)
    assert [k.tobytes() for k in correction.kraus] == [
        (k @ res.u_recovery).tobytes() for k in expected]
