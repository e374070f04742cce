"""Matrix-free discovery: random fixed points by conjugate gradients and
block structure from eigenspace connectivity, against the dense
superoperator reference."""

import json
import re
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
    assert found.structure.fixed_point_residual < 1e-12
    assert len(found.structure.fixed_point_steps) == 3
    assert max(found.structure.fixed_point_steps) <= ch.dim ** 2


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
    assert first.fixed_point_steps == second.fixed_point_steps
    assert first.fixed_point_residual == second.fixed_point_residual


def test_step_cap_raises_unlucky_seed_listing_every_seed(monkeypatch):
    import subrec.algebra as algebra

    monkeypatch.setattr(algebra, "_step_cap", lambda dim: 1)
    ch, _ = planted_channel(2, 2, 8, 3, seed=2, unital=True)
    with pytest.raises(UnluckySeed) as info:
        enumerate_noiseless(compose(dual(ch), ch), seed=3)
    message = str(info.value)
    for seed in range(3, 8):
        assert re.search(rf"seed {seed}: fixed point did not converge: residual "
                         r"\d\.\d{3}e[-+]\d+ after 1 steps", message), message


def test_nan_in_iteration_raises_not_finite():
    ch, _ = planted_channel(2, 2, 8, 3, seed=2, unital=True)
    broken = ch.kraus[0].copy()
    broken[3, 4] = np.nan
    ch.kraus = (broken, *ch.kraus[1:])  # past the constructor's finiteness check
    with pytest.raises(NotFinite, match="non-finite"):
        enumerate_noiseless(ch, seed=0)


def broadcast_channel(dim):
    """Kraus |i><0|: unital (Σ K K^dag = I) but Σ K^dag K = dim |0><0|."""
    kraus = []
    for i in range(dim):
        k = np.zeros((dim, dim))
        k[i, 0] = 1.0
        kraus.append(k)
    return KrausChannel(kraus, require_tp=False)


def test_non_positive_curvature_raises_typed_error():
    ch = broadcast_channel(3)
    assert ch.is_unital and not ch.is_trace_preserving
    with pytest.raises(NotTracePreserving, match=r"curvature .* < 0"):
        enumerate_noiseless(ch, seed=0)


def test_cli_no_tp_check_non_positive_curvature_exit_1(tmp_path, capsys):
    path = tmp_path / "ch.json"
    path.write_text(canonical_dumps(channel_to_json(broadcast_channel(3))))
    assert main(["ns", "--channel", str(path), "--no-tp-check"]) == 1
    err = capsys.readouterr().err
    assert "NotTracePreserving" in err and "Traceback" not in err
    assert issubclass(NotTracePreserving, SubrecError)


@pytest.mark.parametrize("command", ["ns", "ucc"])
def test_reports_carry_fixed_point_convergence(tmp_path, capsys, command):
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
    assert 0 <= report["residuals"]["fixed_point"] < 1e-12
    assert report["residuals"]["structure"] < 1e-9
    steps = report["fixed_point_steps"]
    assert len(steps) == 3 and all(isinstance(s, int) and 0 < s <= 64 for s in steps)


def test_spanning_set_structure_has_no_fixed_point_data():
    basis = fixed_point_basis(to_superoperator(CHANNELS[0]))
    st = algebra_structure(basis, seed=0)
    assert st.fixed_point_residual is None and st.fixed_point_steps == []


def test_summand_projector_certificate_rejects_a_wrong_structure(monkeypatch):
    import subrec.algebra as algebra

    ch, _ = planted_channel(2, 2, 8, 3, seed=4, unital=True)
    comp = compose(dual(ch), ch)
    # two classical sectors in a Haar basis: the pattern is never checked,
    # so only Ψ(P_k) = P_k can reject it
    q = haar_unitary(8, seed=1)
    monkeypatch.setattr(algebra, "_structure_attempt",
                        lambda draw, support, dim, rng, tol:
                        ([(1, 4), (1, 4)], q, [0, 4], 0.0, (0.0, [1, 1, 1])))
    with pytest.raises(UnluckySeed, match=r"summand projector of block \(m=1, n=4\) is not fixed"):
        enumerate_noiseless(comp, seed=0)


def test_emitted_frame_beyond_strict_isometry_defect_is_unlucky_seed():
    # Q passes at acceptance_tol, the W read off it fails strict_tol: a
    # typed UnluckySeed naming the block, not a DimensionMismatch
    ch, _ = planted_channel(2, 2, 8, 3, seed=0, unital=True)
    eps = 1e-9
    mixed = KrausChannel([np.sqrt(1 - eps) * k for k in ch.kraus]
                         + [np.sqrt(eps) * haar_unitary(8, seed=1)])
    with pytest.raises(UnluckySeed, match=r"emitted block \(m=2, n=2\): "
                                          r"W is not an isometry \(defect [0-9.e-]+\)"):
        find_ucc(mixed, tol=1e-9)


def test_third_fixed_point_rejects_degenerate_generators(monkeypatch):
    # y, g multiples of I are fixed points that generate only C I; they fit
    # one block (1, d), which the third, generic fixed point leaves
    import subrec.algebra as algebra

    fixed_point = algebra._fixed_point
    calls = []

    def scalar_generators(ops, x, target):
        calls.append(None)
        if len(calls) % 3:  # the first two draws of each attempt: y and g
            return (1.0 + len(calls) % 3) * np.eye(x.shape[0]), 0.0, 0
        return fixed_point(ops, x, target)

    monkeypatch.setattr(algebra, "_fixed_point", scalar_generators)
    ch, _ = planted_channel(2, 2, 8, 3, seed=4, unital=True)
    with pytest.raises(UnluckySeed) as info:
        enumerate_noiseless(compose(dual(ch), ch), seed=0)
    for seed in range(5):
        assert f"seed {seed}: pattern residual" in str(info.value)


def test_returned_fixed_point_meets_its_target():
    # below the rounding floor the recurrence can claim convergence that the
    # recomputed residual denies: the iteration continues or gives up, and
    # never returns a point above its target
    import subrec.algebra as algebra

    target = 1e-15
    returned = 0
    for channel_seed in range(3020, 3040):
        ch = random_unital_channel(3, 2, seed=channel_seed)
        ops = algebra._psi_kraus(compose(dual(ch), ch))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            try:
                y, residual, _ = algebra._fixed_point((ops,), (z + z.conj().T) / 2, target)
            except algebra._RetryProbe:
                continue
            returned += 1
            psi_y = (ops @ y @ ops.conj().transpose(0, 2, 1)).sum(axis=0)
            assert residual <= target
            assert np.linalg.norm(psi_y - y) / np.linalg.norm(y) < 2 * target
    assert returned > 150


@pytest.mark.parametrize("dim, m", [(2, 1), (3, 2), (6, 4), (11, 3)])
def test_lazy_dual_composition_agrees_with_the_stacked_operators(dim, m):
    # E^dag(E(X)) through E's m operators against the 2 m^2 stacked
    # operators of (Φ + Φ^dag) / 2, Φ = E^dag ∘ E, on Hermitian and general X
    import subrec.algebra as algebra

    for seed in range(5):
        ch = random_unital_channel(dim, m, seed=4000 + seed)
        lazy = algebra._dual_composition_layers(ch)
        stacked = (algebra._psi_kraus(compose(dual(ch), ch)),)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for x in (z, (z + z.conj().T) / 2):
            reference = algebra._apply_layers(stacked, x)
            error = np.linalg.norm(algebra._apply_layers(lazy, x) - reference)
            assert error <= 1e-13 * np.linalg.norm(reference)
        # Ψ(Q Q^dag) kept factored (narrow Q) or densified (wide Q)
        for width in (1, dim):
            q = np.linalg.qr(rng.normal(size=(dim, width))
                             + 1j * rng.normal(size=(dim, width)))[0]
            reference = algebra._apply_layers(stacked, q @ q.conj().T)
            for layers in (lazy, stacked):
                error = np.linalg.norm(algebra._apply_to_projector(layers, q) - reference)
                assert error <= 1e-13 * np.linalg.norm(reference)


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
