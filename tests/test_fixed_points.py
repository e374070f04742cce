"""Matrix-free discovery: block structure of the interaction algebra
from random elements of its generating span, read by eigenspace
connectivity, against the dense superoperator reference."""

import json
import time
import tracemalloc

import numpy as np
import pytest

from subrec import (
    KrausChannel,
    NotFinite,
    NotTracePreserving,
    SubrecError,
    UnluckySeed,
    algebra_structure,
    compose,
    dual,
    enumerate_noiseless,
    find_ucc,
    fixed_point_basis,
    planted_channel,
    to_superoperator,
)
from subrec.cli import main
from subrec.io import canonical_dumps, channel_to_json
from subrec.random_ops import haar_unitary, random_unital_channel

from oracles import fixed_space_dimension

PLANTED_SHAPES = [(2, 2, 8, 3), (1, 2, 5, 2), (2, 3, 9, 2), (3, 2, 10, 3), (2, 2, 6, 2)]


def block_channel(seed):
    """Kraus operators (U_a (x) I_n) ⊕ diag(phases): a matrix block with
    multiplicity n next to a tail that random phases make classical."""
    rng = np.random.default_rng(seed)
    k, n = [(2, 2), (2, 3), (3, 2)][seed % 3]
    tail = 1 + seed % 2
    dim = k * n + tail
    probs = rng.dirichlet(np.ones(2))
    kraus = []
    for p in probs:
        op = np.zeros((dim, dim), dtype=complex)
        op[:k * n, :k * n] = np.kron(haar_unitary(k, rng), np.eye(n))
        op[k * n:, k * n:] = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, tail)))
        kraus.append(np.sqrt(p) * op)
    return KrausChannel(kraus)


def unital_channels():
    """40 unital channels: planted codes composed with their duals, the
    planted channels themselves (not self-adjoint), mixtures of one or two
    Haar unitaries, and block-structured mixtures."""
    cases = []
    for seed in range(10):
        ch, _ = planted_channel(*PLANTED_SHAPES[seed % 5], seed=seed, unital=True)
        cases.append(compose(dual(ch), ch))
    for seed in range(10):
        cases.append(planted_channel(*PLANTED_SHAPES[seed % 5], seed=100 + seed,
                                     unital=True)[0])
    for seed in range(10):
        ch = random_unital_channel(3 + seed % 4, 1 + seed % 2, seed=200 + seed)
        cases.append(compose(dual(ch), ch) if seed % 3 == 0 else ch)
    for seed in range(10):
        ch = block_channel(300 + seed)
        cases.append(compose(dual(ch), ch) if seed % 2 else ch)
    return cases


CHANNELS = unital_channels()


@pytest.mark.parametrize("index", range(len(CHANNELS)))
def test_blocks_equal_dense_reference(index):
    ch = CHANNELS[index]
    assert ch.is_unital and ch.is_trace_preserving
    dense = algebra_structure(fixed_point_basis(to_superoperator(ch)), seed=0)
    found = enumerate_noiseless(ch, seed=0)
    assert sorted(found.structure.blocks) == sorted(dense.blocks)
    assert len(found.subsystems) == len(dense.quantum_blocks)
    assert found.structure.residual < 1e-9


def test_planted_d64_ucc_found_in_quadratic_memory():
    d, d_a, d_b, m = 64, 2, 4, 3
    ch, planted = planted_channel(d_a, d_b, d, m, seed=1, unital=True)
    tracemalloc.start()
    try:
        report = find_ucc(ch, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # E^dag∘E has m^2 Kraus operators of d^2 entries; one d^4 array (the
    # superoperator: 268 MB here) would be 14 times this bound
    assert peak < 32 * d * d * m * m * 16
    assert not report.contradictions
    matches = [e for e in report.subsystems
               if (e.decomposition.d_a, e.decomposition.d_b) == (d_a, d_b)
               and np.linalg.norm(e.decomposition.p_ab - planted.p_ab) < 1e-7]
    assert len(matches) == 1
    assert matches[0].residual < 1e-7
    assert sorted(report.structure.blocks) == [(4, 2), (d - d_a * d_b, 1)]


def test_same_seed_same_result():
    ch, _ = planted_channel(2, 2, 12, 3, seed=5, unital=True)
    comp = compose(dual(ch), ch)
    first = enumerate_noiseless(comp, seed=4).structure
    second = enumerate_noiseless(comp, seed=4).structure
    assert np.array_equal(first.q, second.q)
    assert first.blocks == second.blocks
    assert first.residual == second.residual
    assert first.seed_used == second.seed_used


@pytest.mark.parametrize("discover", [enumerate_noiseless, find_ucc])
def test_unlucky_seed_lists_every_seed_of_the_channel_probe(monkeypatch, discover):
    import subrec.algebra as algebra

    def degenerate(y, g, tol):
        raise algebra._RetryProbe("degenerate draw")

    monkeypatch.setattr(algebra, "_eigenspace_blocks", degenerate)
    ch, _ = planted_channel(2, 2, 8, 3, seed=2, unital=True)
    with pytest.raises(UnluckySeed, match="interaction-algebra probing failed") as info:
        discover(ch, seed=3)
    for seed in range(3, 8):
        assert f"seed {seed}: degenerate draw" in str(info.value)


def test_nan_kraus_entry_raises_not_finite_from_the_draw():
    # a NaN written past the constructor's finiteness check reaches the
    # random draw from the generating span of either discovery
    ch, _ = planted_channel(2, 2, 8, 3, seed=2, unital=True)
    broken = ch.kraus[0].copy()
    broken[3, 4] = np.nan
    ch.kraus = (broken, *ch.kraus[1:])
    for discover in (enumerate_noiseless, find_ucc):
        with pytest.raises(NotFinite, match="non-finite"):
            discover(ch, seed=0)


def broadcast_channel(dim):
    """Kraus |i><0|: unital (Σ K K^dag = I) but Σ K^dag K = dim |0><0|."""
    kraus = []
    for i in range(dim):
        k = np.zeros((dim, dim))
        k[i, 0] = 1.0
        kraus.append(k)
    return KrausChannel(kraus, require_tp=False)


def test_unital_channel_not_trace_preserving_is_refused_up_front():
    # a unital channel that is not trace preserving: Fix is not the
    # commutant of its Kraus operators, so both discoveries refuse it up
    # front, before any draw
    ch = broadcast_channel(3)
    assert ch.is_unital and not ch.is_trace_preserving
    for discover in (enumerate_noiseless, find_ucc):
        with pytest.raises(NotTracePreserving, match="needs a trace-preserving channel"):
            discover(ch, seed=0)


def test_cli_no_tp_check_not_trace_preserving_exit_1(tmp_path, capsys):
    path = tmp_path / "ch.json"
    path.write_text(canonical_dumps(channel_to_json(broadcast_channel(3))))
    for command in ("ns", "ucc"):
        assert main([command, "--channel", str(path), "--no-tp-check"]) == 1
        err = capsys.readouterr().err
        assert "NotTracePreserving" in err and "Traceback" not in err
    assert issubclass(NotTracePreserving, SubrecError)


@pytest.mark.parametrize("command", ["ns", "ucc"])
def test_reports_carry_the_generator_fit_residual(tmp_path, capsys, command):
    ch, _ = planted_channel(2, 2, 8, 3, seed=4, unital=True)
    if command == "ns":
        ch = compose(dual(ch), ch)
    path = tmp_path / "ch.json"
    path.write_text(canonical_dumps(channel_to_json(ch)))
    out = tmp_path / "report.json"
    assert main([command, "--channel", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    report = json.loads(text)
    assert canonical_dumps(report) + "\n" == text
    # the worst pattern residual over every generator of the interaction
    # algebra; no iteration data
    assert 0 <= report["residuals"]["structure"] < 1e-9
    assert "fixed_point" not in report["residuals"] and "fixed_point_steps" not in report


def test_spanning_set_structure_has_no_fixed_point_data():
    # neither a spanning set nor a channel leaves iteration data behind
    basis = fixed_point_basis(to_superoperator(CHANNELS[0]))
    for st in (algebra_structure(basis, seed=0), enumerate_noiseless(CHANNELS[0]).structure):
        assert not hasattr(st, "fixed_point_residual") and not hasattr(st, "fixed_point_steps")


def test_summand_projector_certificate_rejects_a_wrong_structure(monkeypatch):
    # every summand projector P_k of the pattern P is fixed once every
    # generator of the interaction algebra A fits P (A ⊆ P puts P_k in
    # A' = Fix): two sectors in a Haar basis, standing in for what y and g
    # gave, fail that fit in both discoveries
    import subrec.algebra as algebra

    q = haar_unitary(8, seed=1)
    monkeypatch.setattr(algebra, "_eigenspace_blocks", lambda y, g, tol: ([(4, 1), (4, 1)], q))
    ch, _ = planted_channel(2, 2, 8, 3, seed=4, unital=True)
    for discover in (enumerate_noiseless, find_ucc):
        with pytest.raises(UnluckySeed) as info:
            discover(ch, seed=0)
        for seed in range(5):
            assert f"seed {seed}: pattern residual" in str(info.value)


def test_emitted_frame_beyond_strict_isometry_defect_is_unlucky_seed():
    # Q passes at acceptance_tol, the W read off it fails strict_tol: a
    # typed UnluckySeed naming the block, not a DimensionMismatch.  The
    # mixed-in unitary, at amplitude 1e-8, stays below the cluster gap, so
    # the intertwiners of the (m=2, n=2) block are unitary only to ~1e-8
    ch, _ = planted_channel(2, 2, 8, 3, seed=0, unital=True)
    eps = 1e-16
    mixed = KrausChannel([np.sqrt(1 - eps) * k for k in ch.kraus]
                         + [np.sqrt(eps) * haar_unitary(8, seed=1)])
    with pytest.raises(UnluckySeed, match=r"emitted block \(m=2, n=2\): "
                                          r"W is not an isometry \(defect [0-9.e-]+\)"):
        find_ucc(mixed, tol=1e-9)


@pytest.mark.parametrize("discover, draw", [(enumerate_noiseless, "_draw_from_span"),
                                            (find_ucc, "_draw_from_products")])
def test_generator_fit_rejects_degenerate_draws(monkeypatch, discover, draw):
    # draws and their words all multiples of I generate only C I, of
    # pattern one block (1, d), which the generators of the interaction
    # algebra leave (the draw is patched where the discovery binds it)
    monkeypatch.setattr(f"{discover.__module__}.{draw}", lambda ops, rng: np.eye(8))
    ch, _ = planted_channel(2, 2, 8, 3, seed=4, unital=True)
    with pytest.raises(UnluckySeed) as info:
        discover(ch, seed=0)
    for seed in range(5):
        assert f"seed {seed}: pattern residual" in str(info.value)


@pytest.mark.parametrize("dim, m", [(2, 1), (3, 2), (6, 4), (11, 3)])
def test_grouped_fit_agrees_with_the_stacked_composition(dim, m):
    # the generators E_b^dag E_a of the interaction algebra, drawn from
    # and fitted through E's m operators one Kraus row at a time, against
    # the m^2 stacked Kraus operators of E^dag ∘ E
    import subrec.algebra as algebra

    for seed in range(5):
        ch = random_unital_channel(dim, m, seed=4000 + seed)
        ops = np.asarray(ch.kraus)
        stacked = np.asarray(compose(dual(ch), ch).kraus)
        drawn = algebra._draw_from_products(ops, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        c = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        reference = np.tensordot(c.reshape(-1), stacked, axes=1)  # Σ c[b, a] E_b^dag E_a
        assert np.linalg.norm(drawn - reference) <= 1e-13 * np.linalg.norm(reference)
        # a pattern the generators fit and one they do not
        structure = find_ucc(ch, seed=0, tol=1e-9).structure
        alg_blocks = [(n, m_k) for m_k, n in structure.blocks]  # back to A's pattern
        q_alg = np.hstack([structure.q[:, off:off + m_k * n].reshape(dim, m_k, n)
                           .transpose(0, 2, 1).reshape(dim, -1)
                           for (m_k, n), off in zip(structure.blocks, structure.offsets)])
        for q, blocks in ((q_alg, alg_blocks), (haar_unitary(dim, seed=seed), [(1, dim)])):
            offsets = np.cumsum([0] + [a * b for a, b in blocks])[:-1].tolist()
            lazy, _ = algebra._fit_products(ops, q, blocks, offsets)
            reference, _ = algebra._fit_congruence(stacked, q, blocks, offsets)
            assert abs(lazy - reference) <= 1e-13 * max(1.0, reference)


def test_find_ucc_builds_no_composition_and_runs_no_noiseless_check(monkeypatch):
    # the UCC verdict comes from check_correctable and verify_correction on
    # E's own operators; E^dag ∘ E is applied lazily and never composed
    import sys

    def refuse(*args, **kwargs):
        raise AssertionError("find_ucc must not call this")

    for name, module in list(sys.modules.items()):
        if name == "subrec" or name.startswith("subrec."):
            for attr in ("compose", "check_noiseless"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    ch, dec = planted_channel(2, 2, 12, 3, seed=7, unital=True)
    report = find_ucc(ch, seed=0)
    assert not report.contradictions
    assert sorted((s.decomposition.d_a, s.decomposition.d_b) for s in report.subsystems) \
        == [(1, 8), (2, 2)]


def test_find_ucc_peak_memory_below_the_stacked_composition():
    # the stacked Kraus operators of (Φ + Φ^dag) / 2 alone need 2 m^2 d^2
    # complex entries; the lazy form and the row-wise pair checks stay below
    d, m = 128, 8
    ch, dec = planted_channel(2, 4, d, m, seed=1, unital=True)
    tracemalloc.start()
    try:
        report = find_ucc(ch, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted((s.decomposition.d_a, s.decomposition.d_b) for s in report.subsystems) \
        == [(1, d - 8), (2, 4)]
    assert peak < 2 * m * m * d * d * 16


@pytest.mark.parametrize("dim, m, seed, command, fixed_dim", [
    (8, 3, 8040, "ucc", 1), (11, 2, 11026, "ns", 1), (11, 2, 11026, "ucc", 11)])
def test_channels_where_conjugate_gradients_stalled(dim, m, seed, command, fixed_dim):
    # fixed-point iteration raised UnluckySeed on these channels; the
    # interaction algebra answers, with dim Fix = Σ m_k^2 as the dense
    # eigenvalue count of the superoperator says
    ch = random_unital_channel(dim, m, seed=seed)
    target = compose(dual(ch), ch) if command == "ucc" else ch
    assert fixed_space_dimension(to_superoperator(target)) == fixed_dim
    if command == "ucc":
        report = find_ucc(ch, seed=0)
        assert not report.contradictions
        structure = report.structure
    else:
        structure = enumerate_noiseless(ch, seed=0).structure
    assert sum(m_k * m_k for m_k, _ in structure.blocks) == fixed_dim
    assert structure.residual < 1e-9


PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
         "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}


@pytest.mark.parametrize("words, ns_blocks, ucc_blocks", [
    (("XI", "YI", "ZX", "ZY"), [(1, 4)], [(1, 2), (1, 2)]),
    (("XI", "YI", "ZX"), [(1, 2), (1, 2)], [(2, 2)])])
def test_anticommuting_kraus_operators_are_read_off_words_of_two_draws(words, ns_blocks,
                                                                        ucc_blocks):
    # the E_a anticommute, so every Hermitian element of their span squares
    # to a multiple of I: y and g drawn from the span have doubled
    # eigenvalues and generate only M_2 (x) I_2, which the E_a do not fit;
    # products of two draws leave the span and give the algebra
    ch = KrausChannel([np.kron(PAULI[w[0]], PAULI[w[1]]) / np.sqrt(len(words))
                       for w in words])
    report = find_ucc(ch, seed=0)
    assert not report.contradictions
    for target, structure, blocks in ((ch, enumerate_noiseless(ch, seed=0).structure,
                                       ns_blocks),
                                      (compose(dual(ch), ch), report.structure, ucc_blocks)):
        superop = to_superoperator(target)
        assert sorted(structure.blocks) == blocks
        assert sorted(algebra_structure(fixed_point_basis(superop)).blocks) == blocks
        assert sum(m_k * m_k for m_k, _ in blocks) == fixed_space_dimension(superop)
        assert structure.residual < 1e-9


def test_generic_two_unitary_mixture_at_d128_is_classical_and_fast():
    # U and V mixed: the interaction algebra is generated by U^dag V alone,
    # so Fix(E^dag ∘ E) is d classical sectors; conjugate gradients needed
    # about 2 000 steps per fixed point here (26-30 s)
    ch = random_unital_channel(128, 2, seed=7)
    start = time.perf_counter()
    report = find_ucc(ch, seed=0)
    elapsed = time.perf_counter() - start
    assert report.subsystems == [] and not report.contradictions
    assert report.classical_sectors == [(1, 1)] * 128
    assert elapsed < 5.0
