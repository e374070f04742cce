"""Acceptance suite: one labelled pass line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 3 and 6 are split across parameter chunks to keep every test
short; the final chunk of each prints the verdict for the whole
criterion.
"""

import numpy as np
import pytest

from subrec import (
    DemoSpec,
    KrausChannel,
    SubsystemDecomposition,
    algebra_structure,
    check_correctable,
    compose,
    construct_recovery,
    demo_build,
    dual,
    embed_product,
    enumerate_noiseless,
    find_ucc,
    planted_channel,
    recovery_to_correction,
    verify_correction,
)
from subrec.demos import intersect_chords
from subrec.linalg import dagger, operator_basis
from subrec.random_ops import (
    haar_isometry,
    haar_unitary,
    random_channel,
    random_density,
    random_projector,
    random_unital_channel,
)

from oracles import prefix_majorizes, relative_rank, superop_tensor_factorizes, unital_rank_support


def announce(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


# --------------------------------------------------------------- criterion 1

@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_criterion_1_phase_flip(p):
    ch, _ = demo_build(DemoSpec(name="phase-flip", p=p))
    report = find_ucc(ch, seed=0)
    blocks = {(1, 0, 0, 1): None, (0, 1, 1, 0): None}
    for entry in report.subsystems:
        assert entry.decomposition.d_b == 2
        key = tuple(np.round(np.diagonal(entry.decomposition.p_ab).real).astype(int))
        assert key in blocks
        blocks[key] = entry
        assert entry.residual < 1e-8
    assert all(v is not None for v in blocks.values())
    # correction on span{|00>,|11>} acts like the controlled phase flip
    entry = blocks[(1, 0, 0, 1)]
    cpf = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    w = entry.decomposition.w
    worst = 0.0
    for i in range(2):
        for j in range(2):
            sig = np.outer(w[:, i], w[:, j].conj())
            lhs = entry.u_correction @ sig @ dagger(entry.u_correction)
            rhs = cpf @ sig @ dagger(cpf)
            worst = max(worst, np.linalg.norm(lhs - rhs))
    assert worst < 1e-8
    if p == 0.5:
        announce(1, "phase-flip UCC blocks, corrections < 1e-8, "
                    "controlled-phase-flip action matched for p in {0.1, 0.3, 0.5}")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_binary_unitary():
    for seed, (p, thetas) in enumerate([
            (0.5, (0.3, 1.2, 2.5, 4.0)),
            (0.25, (0.1, 0.9, 3.0, 5.5)),
            (0.7, (0.6, 1.8, 2.4, 4.9))]):
        ch, dec = demo_build(DemoSpec(name="binary-unitary", p=p,
                                      thetas=thetas, seed=seed))
        cert = check_correctable(ch, dec)
        assert cert.passed and cert.residual < 1e-9
        _, _, lam = intersect_chords(thetas)
        u = ch.kraus[1] / np.sqrt(1 - p)
        p_ab = dec.p_ab
        assert np.linalg.norm(p_ab @ u @ p_ab - lam * p_ab) < 1e-9
        comp = compose(dual(ch), ch)
        found = enumerate_noiseless(comp, seed=0)
        assert len(found.subsystems) == 0
        assert len(found.structure.classical_sectors) == 4
    announce(2, "binary-unitary code correctable (< 1e-9), PUP = lambda P "
                "(< 1e-9), composition has 0 quantum blocks + 4 classical sectors")


# --------------------------------------------------------------- criterion 3

DIMS_3 = [(1, 2, 4), (2, 2, 4), (1, 2, 6), (2, 2, 8), (1, 4, 8)]


def roundtrip_instance(d_a, d_b, dim, seed):
    ch, dec = planted_channel(d_a, d_b, dim, 3, seed=seed)
    cert = check_correctable(ch, dec)
    assert cert.passed, f"planted instance {seed} not recognized"
    res = construct_recovery(ch, dec, cert)
    assert res.residual < 1e-8
    corr = recovery_to_correction(res, dec)
    residual, _ = verify_correction(ch, dec, corr)
    assert residual < 1e-8
    # product-state round trips: B marginal intact after each of two rounds
    rng = np.random.default_rng(10_000 + seed)
    sigma_a = random_density(d_a, rng)
    sigma_b = random_density(d_b, rng)
    state = embed_product(dec, sigma_a, sigma_b)
    for _ in range(2):
        state = corr.apply(ch.apply(state))
        compressed = dec.compress(state)
        a_marg = np.trace(compressed.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)
        assert np.linalg.norm(compressed - np.kron(a_marg, sigma_b)) < 1e-8


@pytest.mark.parametrize("dims", DIMS_3, ids=[str(d) for d in DIMS_3])
def test_criterion_3_recovery_roundtrip(dims):
    d_a, d_b, dim = dims
    base = 1000 * DIMS_3.index(dims)
    for seed in range(base, base + 40):
        roundtrip_instance(d_a, d_b, dim, seed)
    if dims == DIMS_3[-1]:
        announce(3, "200 planted instances: correctability recognized, recovery "
                    "residual < 1e-8, correction round trips twice with B intact")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_verdicts_match_oracle_positive():
    disagreements = 0
    for dims in DIMS_3:
        d_a, d_b, dim = dims
        base = 1000 * DIMS_3.index(dims)
        for seed in range(base, base + 40):
            ch, dec = planted_channel(d_a, d_b, dim, 3, seed=seed)
            verdict = check_correctable(ch, dec).passed
            oracle, _, _ = superop_tensor_factorizes(ch, dec)
            assert verdict, f"library rejected planted instance {seed}"
            if verdict != oracle:
                disagreements += 1
    assert disagreements == 0


def test_criterion_4_verdicts_match_oracle_negative():
    disagreements = 0
    for seed in range(200):
        ch = random_channel(4, 3, seed=20_000 + seed)
        d_a = 1 + seed % 2
        dec = SubsystemDecomposition(
            4, d_a, 2, haar_isometry(4, 2 * d_a, seed=30_000 + seed))
        cert = check_correctable(ch, dec)
        oracle, oracle_resid, _ = superop_tensor_factorizes(ch, dec)
        assert not cert.passed and cert.residual > 1e-3
        assert oracle_resid > 1e-3
        if cert.passed != oracle:
            disagreements += 1
    assert disagreements == 0
    announce(4, "200 planted + 200 generic channels: check_correctable verdict "
                "matches the brute-force superoperator oracle, 0 disagreements")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_unital_lemma_suite():
    rng_master = np.random.default_rng(555)
    for trial in range(100):
        dim = int(rng_master.integers(2, 9))
        ch = random_unital_channel(dim, int(rng_master.integers(2, 5)), rng_master)
        sigma = random_density(dim, rng_master)
        q = np.sort(np.linalg.eigvalsh(sigma))[::-1]
        p = np.sort(np.linalg.eigvalsh(ch.apply(sigma)))[::-1]
        assert prefix_majorizes(q, p, tol=1e-8)

        rank = int(rng_master.integers(1, dim + 1))
        proj = random_projector(dim, rank, rng_master)
        out = ch.apply(proj)
        out_rank = relative_rank(out, 1e-9)
        assert out_rank >= rank
        if out_rank == rank:
            assert np.linalg.norm(out @ out - out) < 1e-8

        # unitary channels always saturate: E(P) must be a projector
        u = haar_unitary(dim, rng_master)
        uch = KrausChannel([u])
        uout = uch.apply(proj)
        assert relative_rank(uout, 1e-9) == rank
        assert np.linalg.norm(uout @ uout - uout) < 1e-8

        # fixed-point duality on projectors both ways
        fwd = np.linalg.norm(ch.apply(proj) - proj) < 1e-8
        bwd = np.linalg.norm(dual(ch).apply(proj) - proj) < 1e-8
        assert fwd == bwd
        eye = np.eye(dim)
        assert np.linalg.norm(ch.apply(eye) - eye) < 1e-8
        assert np.linalg.norm(dual(ch).apply(eye) - eye) < 1e-8

    # triple equivalence agreement on correctable decompositions
    for seed in range(10):
        ch, dec = planted_channel(2, 2, 8, 3, seed=40_000 + seed, unital=True)
        assert len(set(unital_rank_support(ch.kraus, dec.w, d_a=dec.d_a))) == 1
        bch, bdec = demo_build(DemoSpec(name="binary-unitary", p=0.4, seed=seed))
        assert len(set(unital_rank_support(bch.kraus, bdec.w, d_a=bdec.d_a))) == 1
        pch, pdec = demo_build(DemoSpec(name="phase-flip", p=0.2 + 0.05 * seed))
        assert len(set(unital_rank_support(pch.kraus, pdec.w, d_a=pdec.d_a))) == 1
    announce(5, "100 unital channels: majorization, rank monotonicity, rank "
                "saturation => projector, fixed-point duality; triple "
                "equivalence agreed on 30 correctable pairs; 0 violations")


# --------------------------------------------------------------- criterion 6

def random_pattern(rng):
    budget = 12
    pattern = []
    while budget >= 1:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        if m * n > budget:
            if budget == 1 and not pattern:
                pattern.append((1, 1))
            break
        pattern.append((m, n))
        budget -= m * n
        if rng.random() < 0.3:
            break
    return pattern or [(1, 1)]


def planted_algebra(pattern, dim, seed):
    basis = []
    off = 0
    for m, n in pattern:
        for i in range(m):
            for j in range(m):
                x = np.zeros((dim, dim), dtype=complex)
                unit = np.zeros((m, m))
                unit[i, j] = 1.0
                x[off:off + m * n, off:off + m * n] = np.kron(unit, np.eye(n))
                basis.append(x)
        off += m * n
    r = haar_unitary(dim, seed)
    return [r @ x @ dagger(r) for x in basis]


@pytest.mark.parametrize("chunk", range(5))
def test_criterion_6_algebra_roundtrip(chunk):
    for case in range(10):
        seed = 50_000 + chunk * 10 + case
        rng = np.random.default_rng(seed)
        pattern = random_pattern(rng)
        total = sum(m * n for m, n in pattern)
        dim = total + int(rng.integers(0, 3))  # sometimes pad with a kernel
        basis = planted_algebra(pattern, dim, seed)
        st = algebra_structure(basis, seed=seed)
        assert sorted(st.blocks) == sorted(pattern), (pattern, st.blocks)
        assert st.residual < 1e-9
    if chunk == 4:
        announce(6, "50 random block algebras conjugated by Haar unitaries: "
                    "(m_k, n_k) multiset exact, pattern residual < 1e-9")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_swap():
    ch, dec = demo_build(DemoSpec(name="swap"))
    cert = check_correctable(ch, dec)
    res = construct_recovery(ch, dec, cert)
    swap = ch.kraus[0]
    worst = 0.0
    for x in operator_basis(4):
        lhs = res.u_recovery @ x @ dagger(res.u_recovery)
        rhs = swap @ x @ dagger(swap)  # the swap is its own inverse
        worst = max(worst, np.linalg.norm(lhs - rhs))
    assert worst < 1e-10
    comp = compose(dual(ch), ch)
    found = enumerate_noiseless(comp, seed=0)
    assert found.structure.blocks == [(4, 1)]
    dec_full = found.subsystems[0]
    assert np.linalg.norm(dec_full.p_ab - np.eye(4)) < 1e-9
    announce(7, "swap recovery equals the inverse swap action (< 1e-10); "
                "swap∘swap reports the full space noiseless")
