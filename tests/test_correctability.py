import json
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
    compose,
    demo_build,
    dual,
    factor_on_range,
    planted_channel,
)
from subrec.demos import intersect_chords
from subrec.io import canonical_dumps, channel_from_json, channel_to_json
from subrec.linalg import complete_isometry, dagger
from subrec.random_ops import haar_isometry, haar_unitary, random_channel

from oracles import superop_tensor_factorizes


def test_unitary_channel_full_space():
    u = haar_unitary(4, seed=0)
    ch = KrausChannel([u])
    dec = SubsystemDecomposition.trivial(2, 2)
    cert = check_correctable(ch, dec)
    assert cert.passed
    assert np.linalg.norm(cert.f_blocks[0, 0] - np.eye(2)) < 1e-12


def test_binary_unitary_offdiagonal_block():
    thetas = (0.3, 1.2, 2.5, 4.0)
    p = 0.5
    ch, dec = demo_build(DemoSpec(name="binary-unitary", p=p, thetas=thetas, seed=1))
    cert = check_correctable(ch, dec)
    assert cert.passed
    assert cert.residual < 1e-9
    _, _, lam = intersect_chords(thetas)
    # F_12 is the 1x1 factor of P E_1^dag E_2 P = sqrt(p(1-p)) P U P
    expected = np.sqrt(p * (1 - p)) * lam
    assert abs(cert.f_blocks[0, 1][0, 0] - expected) < 1e-9


def test_phase_flip_code_correctable():
    ch, dec = demo_build(DemoSpec(name="phase-flip", p=0.3))
    # brute-force: P Z_i Z_j P is proportional to P on span{|00>,|11>}
    p_ab = dec.p_ab
    for a in ch.kraus:
        for b in ch.kraus:
            m = p_ab @ dagger(a) @ b @ p_ab
            coeff = np.trace(m) / 2.0
            assert np.linalg.norm(m - coeff * p_ab) < 1e-12
    cert = check_correctable(ch, dec)
    assert cert.passed
    assert cert.residual < 1e-12


def test_certificate_block_symmetry_and_positivity():
    ch, dec = planted_channel(2, 2, 8, 3, seed=2)
    cert = check_correctable(ch, dec)
    assert cert.passed
    m = ch.m
    for a in range(m):
        for b in range(m):
            assert np.linalg.norm(cert.f_blocks[a, b]
                                  - dagger(cert.f_blocks[b, a])) < 1e-10
    assert cert.f_min_eigenvalue > -1e-10
    # G_A agrees with the brute-force superoperator factorization
    ok, resid, g_oracle = superop_tensor_factorizes(ch, dec)
    assert ok and resid < 1e-9
    assert np.linalg.norm(g_oracle - cert.g_a) < 1e-9


@pytest.mark.parametrize("dims", [(1, 2, 4, 2), (2, 2, 4, 2), (2, 2, 8, 3), (1, 4, 8, 3)])
def test_planted_instances_pass(dims):
    d_a, d_b, dim, m = dims
    for seed in range(3):
        ch, dec = planted_channel(d_a, d_b, dim, m, seed=seed)
        cert = check_correctable(ch, dec)
        assert cert.passed
        assert cert.residual < 1e-9
        assert cert.g_a_residual < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_generic_channels_fail_loudly(seed):
    ch = random_channel(4, 3, seed=seed)
    d_a = 1 + seed % 2
    dec = SubsystemDecomposition(4, d_a, 2, haar_isometry(4, 2 * d_a, seed=100 + seed))
    cert = check_correctable(ch, dec)
    assert not cert.passed
    assert cert.residual > 1e-3


def test_noiseless_identity_channel():
    ch = KrausChannel([np.eye(4)])
    dec = SubsystemDecomposition(4, 1, 2, haar_isometry(4, 2, seed=3))
    verdict = check_noiseless(ch, dec)
    assert verdict.ok
    assert verdict.residual < 1e-12
    # G_A is the identity map on the 1-dimensional A factor
    assert np.linalg.norm(verdict.g_a - np.eye(1)) < 1e-12


def test_phase_flip_not_noiseless_but_composition_is():
    ch, dec = demo_build(DemoSpec(name="phase-flip", p=0.3))
    assert not check_noiseless(ch, dec).ok
    comp = compose(dual(ch), ch)
    verdict = check_noiseless(comp, dec)
    assert verdict.ok
    assert verdict.residual < 1e-10


def test_noiseless_implies_correctable():
    ch, dec = demo_build(DemoSpec(name="phase-flip", p=0.3))
    comp = compose(dual(ch), ch)
    assert check_noiseless(comp, dec).ok
    assert check_correctable(comp, dec).passed


def test_certificate_matches_origin():
    ch, dec = planted_channel(1, 2, 4, 2, seed=4)
    other_ch, other_dec = planted_channel(1, 2, 4, 2, seed=5)
    cert = check_correctable(ch, dec)
    assert cert.matches(ch, dec)
    assert not cert.matches(other_ch, dec)
    assert not cert.matches(ch, other_dec)


def _pairwise_factorization(ch, dec, tol=1e-9):
    # per-pair reference: factor_on_range on the ambient E_a^dag E_b
    m = ch.m
    f_blocks = np.zeros((m, m, dec.d_a, dec.d_a), dtype=complex)
    residuals = np.zeros((m, m))
    ok = True
    for a in range(m):
        for b in range(m):
            res = factor_on_range(dec, dagger(ch.kraus[a]) @ ch.kraus[b], tol=tol)
            f_blocks[a, b], residuals[a, b] = res.factor, res.residual
            ok = ok and res.ok
    return f_blocks, float(np.max(residuals)), ok


def _assert_matches_pairwise(ch, dec):
    cert = check_correctable(ch, dec)
    f_blocks, residual, ok = _pairwise_factorization(ch, dec)
    assert np.max(np.abs(cert.f_blocks - f_blocks)) < 1e-12
    assert abs(cert.residual - residual) < 1e-12
    assert cert.passed == ok
    return cert


@pytest.mark.parametrize("dims", [(1, 2, 4, 2), (2, 2, 8, 3), (3, 2, 9, 3), (1, 4, 8, 3)])
def test_compressed_pairs_match_pairwise_factorization(dims):
    d_a, d_b, dim, m = dims
    ch, dec = planted_channel(d_a, d_b, dim, m, seed=40 + dim)
    assert _assert_matches_pairwise(ch, dec).passed
    wrong = SubsystemDecomposition(dim, d_a, d_b, haar_isometry(dim, d_a * d_b, seed=50 + dim))
    assert not _assert_matches_pairwise(ch, wrong).passed


@pytest.mark.parametrize("seed", range(3))
def test_verdicts_near_threshold_match_pairwise_factorization(seed):
    ch, dec = planted_channel(2, 2, 8, 3, seed=60 + seed)
    rng = np.random.default_rng(70 + seed)
    kicks = [rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) for _ in ch.kraus]
    verdicts = []
    # 1.5e-10 and 2e-10 land at about 0.8 and 1.1 times the threshold
    for eps in (1e-10, 1.5e-10, 2e-10, 1e-9, 3e-9, 1e-6):
        noisy = KrausChannel([k + eps * r for k, r in zip(ch.kraus, kicks)],
                             require_tp=False)
        verdicts.append(_assert_matches_pairwise(noisy, dec).passed)
    assert verdicts == [True, True, False, False, False, False]


def test_threshold_scales_with_pair_norm():
    # ||E_a^dag E_b||_F reaches 2.6 here, so a residual above tol can pass
    ch, dec = planted_channel(2, 2, 16, 2, seed=60)
    rng = np.random.default_rng(70)
    kicks = [rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)) for _ in ch.kraus]
    noisy = KrausChannel([k + 2e-10 * r for k, r in zip(ch.kraus, kicks)], require_tp=False)
    cert = _assert_matches_pairwise(noisy, dec)
    assert cert.passed and cert.residual > 1e-9


def _grouping_case(shape):
    # certify's shape (m = 3, n = 32: one chunk of 6 pairs under the 2^16
    # floor), m = 8, n = 64 (chunks of 4 of the 36 pairs), the wide workload's
    # (2, 2) code at d = 256 (one chunk) and the (1, 248) complement block of a
    # planted (2, 4) code at d = 256, m = 8 (chunks of 2 pairs, above the floor)
    if shape == "complement":
        ch, dec = planted_channel(2, 4, 256, 8, seed=1, unital=True)
        return ch, SubsystemDecomposition(256, 1, 248, complete_isometry(dec.w, 1e-9)[:, 8:])
    return planted_channel(*shape, seed=7)


def _pairs_row_by_row(ch, dec):
    # one Kraus row a of pairs at a time, F_ab (x) I_B subtracted per row;
    # then the pairs a > b are the adjoints of the pairs a < b
    m, d_a, d_b = ch.m, dec.d_a, dec.d_b
    kw = np.asarray(ch.kraus) @ dec.w
    kw_dag = kw.conj().transpose(0, 2, 1)
    f_blocks = np.empty((m, m, d_a, d_a), dtype=complex)
    residuals = np.empty((m, m))
    diagonal = np.arange(d_b)
    for a in range(m):
        delta = (kw_dag[a] @ kw).reshape(m, d_a, d_b, d_a, d_b)
        f_blocks[a] = np.einsum("bikjk->bij", delta) / d_b
        delta[:, :, diagonal, :, diagonal] -= f_blocks[a]
        flat = delta.reshape(m, -1).view(float)
        residuals[a] = np.sqrt(np.einsum("bx,bx->b", flat, flat))
    for a, b in zip(*np.tril_indices(m, -1)):
        f_blocks[a, b] = dagger(f_blocks[b, a])
        residuals[a, b] = residuals[b, a]
    return f_blocks, residuals


@pytest.mark.parametrize("shape", [(4, 8, 40, 3), (4, 16, 80, 8), (2, 2, 256, 3), "complement"])
def test_grouped_pairs_match_row_by_row_loop_bit_for_bit(shape):
    # the chunks of pairs a <= b take the adjoints of their own rows, the
    # loop those of the whole stack: F, every pair residual and G_A agree
    # bit for bit, and F is exactly Hermitian
    ch, dec = _grouping_case(shape)
    cert = check_correctable(ch, dec)
    assert cert.passed
    f_blocks, residuals = _pairs_row_by_row(ch, dec)
    assert cert.f_blocks.tobytes() == f_blocks.tobytes()
    assert cert.pair_residuals.tobytes() == residuals.tobytes()
    assert np.array_equal(cert.f_matrix, dagger(cert.f_matrix))
    assert cert.residual == float(np.max(residuals))
    f_ab = f_blocks.reshape(ch.m ** 2, dec.d_a, dec.d_a)
    g_a = np.einsum("xij,xkl->ikjl", f_ab.conj(), f_ab).reshape(dec.d_a ** 2, dec.d_a ** 2)
    assert cert.g_a.tobytes() == g_a.tobytes()
    # on a passing certificate the G_A residual is the bound read off the pairs
    f_norms = np.linalg.norm(f_blocks, axis=(2, 3))
    assert cert.g_a_residual == float(np.sum(residuals * (2.0 * f_norms + residuals)))


def test_exact_g_a_check_on_the_pairs_of_the_stack_matches_bit_for_bit():
    # a kick of 1e-2 on a code 1e3 X_a off it: every pair passes, but the
    # bound on the G_A identity fails its threshold, so the exact check runs
    ch, dec = _large_off_code(1e-2)
    cert = check_correctable(ch, dec)
    f_norms = np.linalg.norm(cert.f_blocks, axis=(2, 3))
    residuals = cert.pair_residuals
    assert float(np.sum(residuals * (2.0 * f_norms + residuals))) > 4e-9
    assert cert.g_a is not None
    kw = np.asarray(ch.kraus) @ dec.w
    pairs = (kw.conj().transpose(0, 2, 1)[:, None] @ kw[None]).reshape(ch.m ** 2, 4, 4)
    assert cert.g_a_residual == certify_code_map(pairs, 2, 2, superop=cert.g_a).residual


def test_peak_memory_holds_one_stack_at_the_ucc_complement_block():
    # the (1, d - 8) complement of a planted (2, 4) code at d = 128, m = 8:
    # beside the Kraus array (m d^2) the pair check keeps the stack E_a W
    # (m d n), which the certificate hands on, and one chunk of pairs, whose
    # gathered operands and product stay within m n^2 entries (two pairs per
    # chunk); the adjoint of the whole stack, one more m d n stack, would
    # exceed the bound
    d, m = 128, 8
    n = d - 8
    ch, code = planted_channel(2, 4, d, m, seed=1, unital=True)
    block = SubsystemDecomposition(d, 1, n, complete_isometry(code.w, 1e-9)[:, 8:])
    tracemalloc.start()
    try:
        cert = check_correctable(ch, block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.passed
    stack = m * d * n * 16
    assert peak < m * d * d * 16 + 1.5 * stack + 2 * m * n * n * 16


def _large_off_code(kick, seed=60):
    # Kraus operators 1e3 X_a (I - P) + kick Y_a P (not trace preserving): the
    # complement of the code makes ||E_a^dag E_b||_F about 1e7, while the code
    # sees only the kick, so the pair residuals, about kick^2, lie far above
    # tol = 1e-9 and, for a small kick, far below tol ||E_a^dag E_b||_F
    d = 10
    dec = SubsystemDecomposition(d, 2, 2, haar_isometry(d, 4, seed=seed))
    rng = np.random.default_rng(seed)
    perp = np.eye(d) - dec.p_ab

    def gauss():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    kraus = [1e3 * gauss() @ perp + kick * gauss() @ dec.p_ab for _ in range(3)]
    return KrausChannel(kraus, require_tp=False), dec


def _count_pair_norms(monkeypatch):
    import subrec.correctability as correctability

    calls = []
    norms = correctability._pair_norms

    def counted(kraus):
        calls.append(kraus.shape)
        return norms(kraus)

    monkeypatch.setattr(correctability, "_pair_norms", counted)
    return calls


def test_pair_residuals_within_tol_times_the_pair_norm_pass(monkeypatch):
    calls = _count_pair_norms(monkeypatch)
    ch, dec = _large_off_code(1e-3)
    cert = check_correctable(ch, dec)
    assert cert.passed
    norms = np.array([[np.linalg.norm(a.conj().T @ b) for b in ch.kraus] for a in ch.kraus])
    assert 1e-9 < cert.residual and np.all(cert.pair_residuals <= 1e-9 * norms)
    assert np.min(norms) > 1e6
    assert calls == [(3, 10, 10)]


def test_pair_residual_above_tol_times_the_pair_norm_fails():
    ch, dec = _large_off_code(0.3)
    cert = check_correctable(ch, dec)
    norms = np.array([[np.linalg.norm(a.conj().T @ b) for b in ch.kraus] for a in ch.kraus])
    assert np.any(cert.pair_residuals > 1e-9 * norms)
    assert not cert.passed


def test_nan_pair_residual_fails_whatever_the_pair_norms(monkeypatch):
    # KrausChannel refuses NaN; poison a constructed channel in place
    calls = _count_pair_norms(monkeypatch)
    ch, dec = _large_off_code(1e-3)
    ch.kraus[1][3, 2] = np.nan
    cert = check_correctable(ch, dec)
    assert np.isnan(cert.pair_residuals).any()
    assert not cert.passed
    assert len(calls) == 1


def test_pair_norms_are_not_formed_when_every_pair_is_within_tol(monkeypatch):
    # the m Gram products at d decide nothing when every r_ab <= tol, since the
    # threshold tol max(1, ||E_a^dag E_b||_F) is at least tol, nor when some
    # r_ab exceeds tol ||E_a||_F ||E_b||_F, which bounds that threshold: the
    # Haar negative fails on the bound alone
    calls = _count_pair_norms(monkeypatch)
    ch, dec = planted_channel(4, 8, 40, 3, seed=61)
    cert = check_correctable(ch, dec)
    assert cert.passed and np.all(cert.pair_residuals <= 1e-9)
    assert calls == []
    bad = SubsystemDecomposition(40, 4, 8, haar_isometry(40, 32, seed=62))
    assert not check_correctable(ch, bad).passed
    assert calls == []


def test_pair_residual_between_the_pair_norm_and_the_norm_product_runs_the_norms_once(
        monkeypatch):
    # a kick of 0.05 puts the largest r_ab between tol ||E_a^dag E_b||_F, about
    # half of it, and tol ||E_a||_F ||E_b||_F, above it: the bound cannot fail
    # the pair, so the exact norms run once, and they fail it
    calls = _count_pair_norms(monkeypatch)
    ch, dec = _large_off_code(0.05)
    cert = check_correctable(ch, dec)
    exact = np.array([[np.linalg.norm(a.conj().T @ b) for b in ch.kraus] for a in ch.kraus])
    norms = np.linalg.norm(ch.kraus, axis=(1, 2))
    assert np.any(cert.pair_residuals > 1e-9 * exact)
    assert np.all(cert.pair_residuals <= 1e-9 * np.outer(norms, norms))
    assert not cert.passed
    assert calls == [(3, 10, 10)]


def _check_with_exact_pair_norms(monkeypatch, ch, dec):
    # check_correctable with the norm-product bound set to inf, so that the
    # exact pair norms decide every pair above tol
    import subrec.correctability as correctability

    with monkeypatch.context() as patch:
        patch.setattr(correctability, "_norm_products",
                      lambda kraus: np.full((len(kraus), len(kraus)), np.inf))
        return check_correctable(ch, dec)


def _verdict_family():
    # the certify workload's 41 seed-1 instances, planted (4, 8) codes at
    # d = 40 with m = 3 drawn from default_rng([1, 1, i]), with the Haar
    # negative drawn next from the same generator, and the kicked codes
    for index in range(41):
        rng = np.random.default_rng([1, 1, index])
        ch, dec = planted_channel(4, 8, 40, 3, rng)
        yield ch, dec
        yield ch, SubsystemDecomposition(40, 4, 8, haar_isometry(40, 32, rng))
    for seed in (60, 61):
        for kick in np.geomspace(1e-4, 0.3, 12):
            yield _large_off_code(kick, seed)


def test_verdicts_match_an_oracle_that_forms_every_pair_norm(monkeypatch):
    verdicts = set()
    for ch, dec in _verdict_family():
        cert = check_correctable(ch, dec)
        exact = _check_with_exact_pair_norms(monkeypatch, ch, dec)
        assert cert.passed == exact.passed
        assert cert.residual == exact.residual
        assert cert.pair_residuals.tobytes() == exact.pair_residuals.tobytes()
        assert cert.g_a_residual == exact.g_a_residual
        verdicts.add(cert.passed)
    assert verdicts == {True, False}


def test_checks_allocate_less_than_one_kraus_stack():
    # a d = 128, m = 8 channel read from its wire form: the checks use the
    # channel's own stack, and a negative fails on the norm products without
    # the m Gram products at d, so none of them allocates a stack of that size
    ch, dec = planted_channel(2, 4, 128, 8, seed=1)
    ch = channel_from_json(json.loads(canonical_dumps(channel_to_json(ch))))
    bad = SubsystemDecomposition(128, 2, 4, haar_isometry(128, 8, seed=2))
    for check, code, verdict in ((check_correctable, dec, True),
                                 (check_correctable, bad, False),
                                 (check_noiseless, dec, None)):
        tracemalloc.start()
        try:
            result = check(ch, code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict is None or result.passed is verdict
        assert peak < ch.kraus.nbytes


def test_pair_norms_hold_one_gram_stack():
    # the Grams E_a E_a^dag are formed one at a time into one stack, with no
    # conjugate copy of the Kraus stack, and paired by one real product: the
    # stacked products, the copy and the conjugate Grams peaked at two stacks
    import subrec.correctability as correctability

    ch, _ = planted_channel(2, 4, 128, 8, seed=1)
    tracemalloc.start()
    try:
        norms = correctability._pair_norms(ch.kraus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * ch.kraus.nbytes  # the Grams' stack has the Kraus stack's size
    exact = np.array([[np.linalg.norm(a.conj().T @ b) for b in ch.kraus] for a in ch.kraus])
    np.testing.assert_allclose(norms, exact, rtol=1e-12)
