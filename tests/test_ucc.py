import json

import numpy as np
import pytest

from subrec import (
    DemoSpec,
    KrausChannel,
    NotUnital,
    SubsystemDecomposition,
    check_correctable,
    check_noiseless,
    compose,
    construct_recovery,
    demo_build,
    dual,
    find_ucc,
    planted_channel,
    recovery_to_correction,
    verify_correction,
)
from subrec.cli import main
from subrec.io import canonical_dumps, channel_to_json, subsystem_to_json
from subrec.linalg import acceptance_tol, dagger, operator_basis
from subrec.random_ops import haar_isometry, haar_unitary, random_channel, random_unital_channel
from subrec.recovery import _verify_on
from oracles import collective_rotation, relative_rank, schur_weyl, unital_rank_support


def test_unitary_channel_whole_space_ucc():
    u0 = haar_unitary(4, seed=0)
    ch = KrausChannel([u0])
    report = find_ucc(ch, seed=0)
    assert len(report.subsystems) == 1
    entry = report.subsystems[0]
    assert entry.decomposition.d_b == 4
    assert entry.residual < 1e-9
    # correction acts as U0^dag on every operator
    for x in operator_basis(4)[:6]:
        lhs = entry.u_correction @ ch.apply(x) @ dagger(entry.u_correction)
        assert np.linalg.norm(lhs - x) < 1e-9


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_phase_flip_ucc_and_controlled_phase_flip(p):
    ch, _ = demo_build(DemoSpec(name="phase-flip", p=p))
    report = find_ucc(ch, seed=0)
    assert len(report.subsystems) == 2
    assert report.classical_sectors == []
    spans = {}
    for entry in report.subsystems:
        diag = tuple(np.round(np.diagonal(entry.decomposition.p_ab).real).astype(int))
        spans[diag] = entry
        assert entry.residual < 1e-8
    assert set(spans) == {(1, 0, 0, 1), (0, 1, 1, 0)}
    # on the span{|00>,|11>} block the correction's action on the code
    # matches the controlled phase flip diag(1, 1, 1, -1)
    entry = spans[(1, 0, 0, 1)]
    cpf = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    w = entry.decomposition.w
    for i in range(2):
        for j in range(2):
            sig = np.outer(w[:, i], w[:, j].conj())
            lhs = entry.u_correction @ sig @ dagger(entry.u_correction)
            rhs = cpf @ sig @ dagger(cpf)
            assert np.linalg.norm(lhs - rhs) < 1e-8


def test_binary_unitary_no_ucc_but_correctable_code():
    ch, code = demo_build(DemoSpec(name="binary-unitary", p=0.4, seed=3))
    report = find_ucc(ch, seed=0)
    # only classical information survives E^dag ∘ E
    assert report.subsystems == []
    assert len(report.classical_sectors) == 4
    assert not report.contradictions
    # yet the hand-built code is correctable: correctable != unitarily correctable
    assert check_correctable(ch, code).passed


def test_swap_ucc():
    sw, dec = demo_build(DemoSpec(name="swap"))
    report = find_ucc(sw, seed=0)
    assert len(report.subsystems) == 1
    assert report.subsystems[0].decomposition.d_b == 4
    assert report.subsystems[0].residual < 1e-9


def test_find_ucc_requires_unital():
    damp = KrausChannel([np.array([[1.0, 0.0], [0.0, 0.6]]),
                         np.array([[0.0, 0.8], [0.0, 0.0]])])
    with pytest.raises(NotUnital):
        find_ucc(damp)


def test_ucc_soundness():
    # every reported subsystem is noiseless for E^dag ∘ E and its
    # correction satisfies the defining equation
    ch, _ = planted_channel(2, 2, 8, 3, seed=4, unital=True)
    assert ch.is_unital
    comp = compose(dual(ch), ch)
    report = find_ucc(ch, seed=0)
    assert report.subsystems
    for entry in report.subsystems:
        assert check_noiseless(comp, entry.decomposition).ok
        assert entry.residual < 1e-8
        u = entry.u_correction
        assert np.linalg.norm(dagger(u) @ u - np.eye(ch.dim)) < 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_ucc_completeness_on_planted(seed):
    d_a, d_b, dim = 2, 2, 8
    ch, planted = planted_channel(d_a, d_b, dim, 3, seed=seed, unital=True)
    report = find_ucc(ch, seed=0)
    # some reported subsystem contains the planted code: d_B matches and
    # the planted isometry's range lies in the recovered block's range
    found = False
    for entry in report.subsystems:
        dec = entry.decomposition
        if dec.d_b != d_b:
            continue
        p = dec.p_ab
        leak = np.linalg.norm(planted.w - p @ planted.w)
        if leak < 1e-7:
            found = True
    assert found


def _force_contradiction(monkeypatch, stage):
    # every candidate fails one later stage: the recovery reports an output
    # subsystem C one dimension larger than A, or the verified correction
    # residual lies above its threshold
    import subrec.ucc as ucc

    build, verify = ucc._build_recovery, ucc._verify_on

    def wider_c(ch, dec, cert, tol):
        built = build(ch, dec, cert, tol)
        n = (dec.d_a + 1) * dec.d_b
        return built._replace(c_subsystem=SubsystemDecomposition(
            ch.dim, dec.d_a + 1, dec.d_b, np.eye(ch.dim, n, dtype=complex)))

    def above_threshold(kw, dec, correction, tol):
        _, f_a = verify(kw, dec, correction, tol)
        return 1e-3, f_a

    if stage == "rank":
        monkeypatch.setattr(ucc, "_build_recovery", wider_c)
    else:
        monkeypatch.setattr(ucc, "_verify_on", above_threshold)


CONTRADICTIONS = [("rank", "dim C = 2 differs from d_A = 1", 2.0),
                  ("verify", "correction residual above tolerance", 1e-3)]


@pytest.mark.parametrize("stage, detail, residual", CONTRADICTIONS)
def test_later_stage_failures_are_reported_as_contradictions(monkeypatch, stage, detail,
                                                             residual):
    ch, _ = demo_build(DemoSpec(name="phase-flip", p=0.3))
    _force_contradiction(monkeypatch, stage)
    report = find_ucc(ch, seed=0)
    assert report.subsystems == []
    assert [(c.stage, c.detail, c.residual) for c in report.contradictions] \
        == [(stage, detail, residual)] * 2
    assert sorted(tuple(np.round(np.diagonal(c.decomposition.p_ab).real).astype(int))
                  for c in report.contradictions) == [(0, 1, 1, 0), (1, 0, 0, 1)]


@pytest.mark.parametrize("stage, detail, residual", CONTRADICTIONS)
def test_cli_ucc_lists_contradictions_and_exits_2(monkeypatch, tmp_path, capsys, stage,
                                                 detail, residual):
    ch, _ = demo_build(DemoSpec(name="phase-flip", p=0.3))
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(canonical_dumps(channel_to_json(ch)))
    _force_contradiction(monkeypatch, stage)
    assert main(["ucc", "--channel", str(ch_file)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "unitarily correctable subsystems: 0"
    assert lines[2:] == [f"  contradiction at {stage}: {detail}"] * 2
    assert main(["ucc", "--channel", str(ch_file), "--format", "json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["subsystems"] == []
    assert [(c["stage"], c["detail"], c["residual"]) for c in report["contradictions"]] \
        == [(stage, detail, residual)] * 2


def test_rank_diagnostics_present():
    ch, _ = demo_build(DemoSpec(name="phase-flip", p=0.25))
    report = find_ucc(ch, seed=0)
    assert len(report.rank_diagnostics) == 2
    for rank_out, rank_in in report.rank_diagnostics:
        assert rank_out == rank_in == 2


# the unital rank-support theorem (Kribs & Spekkens, PRA 74, 042329 (2006)):
# for unital noise and a correctable subsystem, support containment, rank
# equality and the fixed point E^dag∘E(P_AB) = P_AB each hold exactly when the
# subsystem is unitarily correctable; the oracle checks each on dense operators

def _rank_support(ch, dec):
    return unital_rank_support(ch.kraus, dec.w, d_a=dec.d_a)


def test_rank_support_equivalence_unitary():
    u0 = haar_unitary(4, seed=5)
    ch = KrausChannel([u0])
    dec = SubsystemDecomposition.trivial(2, 2)
    assert _rank_support(ch, dec) == (True, True, True)


def test_rank_support_equivalence_phase_flip_code():
    ch, dec = demo_build(DemoSpec(name="phase-flip", p=0.3))
    assert _rank_support(ch, dec) == (True, True, True)


def test_rank_support_equivalence_binary_unitary_code():
    ch, dec = demo_build(DemoSpec(name="binary-unitary", p=0.45, seed=6))
    triple = _rank_support(ch, dec)
    assert triple == (False, False, False)
    # oracle: rank of p P + (1-p) U P U^dag exceeds rank(P) = 2
    p_ab = dec.p_ab
    out = ch.apply(p_ab)
    assert np.linalg.matrix_rank(out, tol=1e-9) > 2


def test_rank_support_equivalence_preconditions():
    gch = random_channel(4, 3, seed=7)
    # make it unital: mixture of unitaries instead
    from subrec.random_ops import random_unital_channel
    uch = random_unital_channel(4, 3, seed=8)
    dec = SubsystemDecomposition(4, 1, 2, haar_isometry(4, 2, seed=9))
    # the oracle refuses inputs outside the theorem's hypotheses
    with pytest.raises(ValueError, match="unital"):
        _rank_support(gch, dec)
    with pytest.raises(ValueError, match="correctable"):
        _rank_support(uch, dec)


def test_mixed_quantum_and_classical_sectors():
    # one 4-dim block where only the second factor is protected, plus a
    # 2-dim tail that random phases reduce to classical labels
    rng = np.random.default_rng(31)

    def block_kraus(u_a, phases):
        k = np.zeros((6, 6), dtype=complex)
        k[:4, :4] = np.kron(u_a, np.eye(2))
        k[4:, 4:] = np.diag(np.exp(1j * phases))
        return np.sqrt(0.5) * k

    ch = KrausChannel([
        block_kraus(haar_unitary(2, rng), rng.uniform(0, 2 * np.pi, 2))
        for _ in range(2)])
    assert ch.is_unital
    report = find_ucc(ch, seed=0)
    assert not report.contradictions
    # two distinct noise unitaries on the first factor split it into
    # eigenspace labels, so the protected qubit appears twice (d_A = 1)
    assert len(report.subsystems) == 2
    for entry in report.subsystems:
        assert (entry.decomposition.d_a, entry.decomposition.d_b) == (1, 2)
        assert entry.residual < 1e-8
        # supported inside the 4-dim block only
        diag = np.diagonal(entry.decomposition.p_ab).real
        assert np.all(diag[4:] < 1e-9)
    assert len(report.classical_sectors) == 2


@pytest.mark.parametrize("seed", range(3))
def test_triple_agreement(seed):
    # all three booleans agree on every tested correctable pair
    ch, dec = planted_channel(2, 2, 8, 3, seed=seed, unital=True)
    triple = _rank_support(ch, dec)
    assert len(set(triple)) == 1
    ch2, dec2 = demo_build(DemoSpec(name="binary-unitary", p=0.35, seed=seed))
    triple2 = _rank_support(ch2, dec2)
    assert len(set(triple2)) == 1


def _public_chain(ch, seed=0, tol=1e-9):
    # find_ucc's loop over the noiseless blocks of E^dag ∘ E, on the public
    # chain check_correctable -> construct_recovery -> recovery_to_correction
    # -> verify_correction, every recovery certificate computed
    import subrec.algebra as algebra

    _, candidates, fitted = algebra._noiseless_blocks(ch, algebra._draw_from_products,
                                                      algebra._fit_products, seed, tol)
    found, ranks, contradictions = [], [], []
    for dec, (kw, _, _) in zip(candidates, fitted):
        ranks.append((relative_rank(ch.apply(dec.p_ab), tol), relative_rank(dec.p_ab, tol)))
        cert = check_correctable(ch, dec, tol=tol)
        if not cert.passed:
            contradictions.append(("check_correctable", cert.residual))
            continue
        res = construct_recovery(ch, dec, cert, tol=tol)
        if res.dim_c != dec.d_a:
            contradictions.append(("rank", float(res.dim_c)))
            continue
        correction = recovery_to_correction(res, dec, tol=tol)
        residual, f_a = verify_correction(ch, dec, correction, tol=tol)
        if not residual <= acceptance_tol(tol):
            contradictions.append(("verify", residual))
            continue
        found.append((dec.w, correction.kraus[0], kw))
    return found, ranks, contradictions


def _near_ucc(seed):
    # a planted unital code mixed with a Haar unitary at weight 1e-16: its
    # amplitude 1e-8 lies below the cluster gap, so the planted blocks are
    # read off the interaction algebra, and above tol = 1e-9, so they fail
    # check_correctable for E
    ch, _ = planted_channel(2, 2, 8, 2, seed=seed, unital=True)
    eps = 1e-16
    return KrausChannel([np.sqrt(1 - eps) * k for k in ch.kraus]
                        + [np.sqrt(eps) * haar_unitary(8, seed=100 + seed)])


# name: (channel, sorted reported (d_A, d_B), number of contradictions)
CHAIN_CASES = {
    "planted-12": (lambda: planted_channel(2, 2, 12, 3, seed=3, unital=True)[0],
                   [(1, 8), (2, 2)], 0),
    "planted-30": (lambda: planted_channel(2, 3, 30, 2, seed=4, unital=True)[0],
                   [(1, 3), (1, 3), (1, 24)], 0),
    "planted-40": (lambda: planted_channel(4, 8, 40, 3, seed=5, unital=True)[0],
                   [(1, 8), (4, 8)], 0),
    "unitary-3": (lambda: random_unital_channel(3, 1, seed=1), [(1, 3)], 0),
    "unital-6": (lambda: random_unital_channel(6, 3, seed=4), [], 0),
    "collective-4": (lambda: KrausChannel(collective_rotation(4)), [(1, 2), (3, 3)], 0),
    "near-ucc-8": (lambda: _near_ucc(0), [], 3),
}


@pytest.mark.parametrize("make, blocks, n_contradictions", list(CHAIN_CASES.values()),
                         ids=list(CHAIN_CASES))
def test_find_ucc_matches_the_public_chain_bit_for_bit(make, blocks, n_contradictions):
    # find_ucc reads each certificate off the probe's fit, the rank off F and
    # completes W by the other columns of the probe's Q: it must find the very
    # blocks of the public chain, bit for bit, with its contradiction stages
    # and rank integers, and a correction that agrees with the chain's on the
    # images E_a W of the code (off them the two completions differ); its
    # certificate is verify_correction's, bit for bit, on the stack E_a W of
    # the fit, which equals the chain's E_a W to rounding
    ch = make()
    tol = 1e-9
    report = find_ucc(ch, seed=0, tol=tol)
    assert sorted((s.decomposition.d_a, s.decomposition.d_b) for s in report.subsystems) \
        == blocks
    assert len(report.contradictions) == n_contradictions
    found, ranks, contradictions = _public_chain(ch, tol=tol)
    assert report.rank_diagnostics == ranks
    assert [c.stage for c in report.contradictions] == [stage for stage, _ in contradictions]
    for c, (_, residual) in zip(report.contradictions, contradictions):
        assert abs(c.residual - residual) <= 1e-12 * abs(residual)
    assert len(report.subsystems) == len(found)
    kraus = np.asarray(ch.kraus)
    for entry, (w, u_corr, kw) in zip(report.subsystems, found):
        dec = entry.decomposition
        assert np.array_equal(dec.w, w)
        assert max(np.linalg.norm((entry.u_correction - u_corr) @ k @ w) for k in kraus) \
            <= acceptance_tol(tol)
        correction = KrausChannel([entry.u_correction])
        residual, f_a = _verify_on(kw, dec, correction, tol)
        assert (residual, f_a.tobytes()) == (entry.residual, entry.f_a_superop.tobytes())
        residual, f_a = verify_correction(ch, dec, correction, tol=tol)
        assert residual <= acceptance_tol(tol)
        assert abs(residual - entry.residual) <= 1e-14
        assert np.max(np.abs(f_a - entry.f_a_superop)) <= 1e-14


def _spy(monkeypatch, *functions):
    """Count the calls of each function through every subrec module that binds it."""
    import sys

    calls = {f.__name__: 0 for f in functions}

    def counting(f):
        def wrapper(*args, **kwargs):
            calls[f.__name__] += 1
            return f(*args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "subrec" or name.startswith("subrec."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in functions):
                    monkeypatch.setattr(module, attr, counting(value))
    return calls


@pytest.mark.parametrize("name", ["planted-12", "collective-4", "near-ucc-8"])
def test_find_ucc_forms_no_second_pass_over_the_pairs(monkeypatch, name):
    # the certificates come off the probe's fit, the rank off F and the
    # correction off the probe's Q: no per-candidate check, SVD (of a rank or
    # a range) or completion
    make, blocks, n_contradictions = CHAIN_CASES[name]
    ch = make()
    calls = _spy(monkeypatch, check_correctable, recovery_to_correction)
    calls["svd"] = 0
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    report = find_ucc(ch, seed=0)
    assert sorted((s.decomposition.d_a, s.decomposition.d_b) for s in report.subsystems) \
        == blocks
    assert len(report.contradictions) == n_contradictions
    assert calls == {"check_correctable": 0, "svd": 0, "recovery_to_correction": 0}


@pytest.mark.parametrize("name", ["planted-12", "collective-4", "near-ucc-8"])
def test_probe_fit_hands_back_the_pair_data_of_check_correctable(name):
    # block k of the fitted (E_a Q)^dag (E_b Q) is the compressed pair of the
    # candidate W: its stack E_a W, F_ab and remainder norms agree with the
    # ones check_correctable forms again, to rounding
    import subrec.algebra as algebra

    ch = CHAIN_CASES[name][0]()
    _, candidates, fitted = algebra._noiseless_blocks(ch, algebra._draw_from_products,
                                                      algebra._fit_products, 0, 1e-9)
    assert len(fitted) == len(candidates)
    for dec, (kw, f_blocks, residuals) in zip(candidates, fitted):
        cert = check_correctable(ch, dec)
        assert np.linalg.norm(kw - cert.code_kraus) <= 1e-13 * np.linalg.norm(kw)
        assert np.linalg.norm(f_blocks - cert.f_blocks) <= 1e-13 * np.linalg.norm(f_blocks)
        assert np.all(np.abs(residuals - cert.pair_residuals)
                      <= 1e-13 + 1e-9 * cert.pair_residuals)


@pytest.mark.parametrize("command", ["check", "recover"])
def test_cli_check_and_recover_still_run_check_correctable_once(monkeypatch, tmp_path, capsys,
                                                                command):
    ch, dec = demo_build(DemoSpec(name="phase-flip", p=0.3))
    ch_file, dec_file = tmp_path / "ch.json", tmp_path / "dec.json"
    ch_file.write_text(canonical_dumps(channel_to_json(ch)))
    dec_file.write_text(canonical_dumps(subsystem_to_json(dec)))
    calls = _spy(monkeypatch, check_correctable)
    assert main([command, "--channel", str(ch_file), "--subsystem", str(dec_file)]) == 0
    capsys.readouterr()
    assert calls == {"check_correctable": 1}


@pytest.mark.parametrize("n_qubits", [6, 7])
def test_collective_rotation_gives_the_schur_weyl_list(n_qubits):
    # collective noise acts as U_J (x) I_{m_J} on each total spin J: the
    # spin-J irreducible is the noisy factor A, its multiplicity space the
    # protected B, and a multiplicity 1 leaves only a classical label
    report = find_ucc(KrausChannel(collective_rotation(n_qubits)), seed=0)
    expected = schur_weyl(n_qubits)
    assert not report.contradictions
    assert sorted((s.decomposition.d_a, s.decomposition.d_b) for s in report.subsystems) \
        == sorted((d_a, d_b) for d_a, d_b in expected if d_b > 1)
    assert sorted(report.classical_sectors) == sorted((1, d_a) for d_a, d_b in expected
                                                      if d_b == 1)
    for entry in report.subsystems:
        assert entry.residual < 1e-8
