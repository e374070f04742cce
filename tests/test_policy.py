"""The tolerance policy of ``subrec.linalg``: its values, the absence of
numeric cut-offs elsewhere, the completion kernel, and verdicts of kicked
planted channels on both sides of the threshold."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subrec
from subrec import (
    DEFAULT_TOL,
    InternalContradiction,
    KrausChannel,
    NotPartialIsometry,
    SubrecError,
    UccReport,
    certify_code_map,
    check_correctable,
    check_noiseless,
    complete_to_unitary,
    compose,
    construct_recovery,
    dual,
    find_ucc,
    hermitian_eig,
    planted_channel,
)
from subrec.linalg import (
    _index_ordered_basis,
    acceptance_tol,
    cluster_gap,
    complete_isometry,
    dagger,
    eigenvalue_clusters,
    frobenius,
    gram_schmidt_cutoff,
    orthonormal_complement,
    partial_trace_b,
    strict_tol,
)
from subrec.random_ops import haar_isometry, haar_unitary

POLICY = {"strict_tol", "acceptance_tol", "cluster_gap", "gram_schmidt_cutoff"}


def small_float_literals(source, name):
    """(file, line, value) of every float literal in (0, 1e-2) outside the
    policy functions and the ``DEFAULT_TOL`` assignment of linalg."""
    tree = ast.parse(source)
    allowed = set()
    if name == "linalg.py":
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and node.name in POLICY) or (
                    isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["DEFAULT_TOL"]):
                allowed.update(id(n) for n in ast.walk(node))
    return [(name, n.lineno, n.value) for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and type(n.value) is float
            and 0 < n.value < 1e-2 and id(n) not in allowed]


def test_no_numeric_cutoff_outside_the_policy():
    found = []
    for path in sorted(pathlib.Path(subrec.__file__).parent.glob("*.py")):
        found += small_float_literals(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_literal_scan_sees_cutoffs_and_ignores_docstrings():
    source = '"""tolerance 1e-9"""\ndef f(x):\n    """1e-6"""\n    return x > -1e-6 or x < 0.005\n'
    assert sorted(small_float_literals(source, "algebra.py")) == [("algebra.py", 4, 1e-6),
                                                                 ("algebra.py", 4, 0.005)]
    policy = "DEFAULT_TOL = 1e-9\ndef cluster_gap(tol):\n    return 1e-6\nX = 1e-7\n"
    assert small_float_literals(policy, "linalg.py") == [("linalg.py", 4, 1e-7)]


def test_policy_values_at_default_tol():
    # the formula the benchmark gate copies; 100 * 1e-9 rounds to 1e-7 + 1 ulp
    assert acceptance_tol(DEFAULT_TOL) == max(100 * DEFAULT_TOL, 1e-7) == pytest.approx(1e-7)
    assert strict_tol(DEFAULT_TOL, 4.0) == 4e-9
    assert acceptance_tol(DEFAULT_TOL, 40) == pytest.approx(4e-6, rel=1e-15)
    assert cluster_gap(DEFAULT_TOL) == 1e-6
    assert gram_schmidt_cutoff(DEFAULT_TOL, 1e-14) == 1e-6
    assert gram_schmidt_cutoff(DEFAULT_TOL, 1e-6) == pytest.approx(1e-3)
    # a NaN scale fails the comparison instead of falling back to 1
    assert not 0.0 <= strict_tol(DEFAULT_TOL, float("nan"))
    assert isinstance(strict_tol(DEFAULT_TOL, 2.0), float)
    assert strict_tol(DEFAULT_TOL, np.array([0.5, 3.0])).tolist() == [1e-9, 3.0 * 1e-9]


SCALES = {"int-0": 0, "int-7": 7, "negative-int": -3, "big-int": 10 ** 20, "bool": True,
          "float-2.5": 2.5, "float-0.25": 0.25, "float64-40": np.float64(40.0),
          "float64-0.5": np.float64(0.5), "nan": float("nan"), "float64-nan": np.float64("nan"),
          "inf": float("inf"), "-inf": float("-inf"), "float32": np.float32(3.3),
          "int64": np.int64(9), "0-d-array": np.array(4.0),
          "array": np.array([0.5, 3.0, np.nan, np.inf, -np.inf])}


@pytest.mark.parametrize("name", SCALES)
def test_tolerances_equal_the_ufunc_formula_on_every_scale_type(name):
    # Python scalars skip np.maximum; the value, NaN and inf included, is
    # the one np.maximum gives, and so is the type: float, or an array
    scale = SCALES[name]
    for tol in (DEFAULT_TOL, 1e-3):
        for got, base in ((strict_tol(tol, scale), tol),
                          (acceptance_tol(tol, scale), max(100 * tol, 1e-7))):
            want = base * np.maximum(1.0, scale)
            if np.ndim(want):
                assert isinstance(got, np.ndarray)
            else:
                assert type(got) is float
                want = float(want)
            np.testing.assert_array_equal(got, want)  # NaN where want is NaN


def test_a_nan_scale_is_never_hidden():
    for scale in (float("nan"), np.float64("nan"), np.array(np.nan)):
        for cut in (strict_tol(DEFAULT_TOL, scale), acceptance_tol(DEFAULT_TOL, scale)):
            assert np.isnan(cut)
            assert not 0.0 <= cut and not cut <= np.inf


def _frobenius_inputs():
    rng = np.random.default_rng(81)
    z = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    big = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    return {"real": z.real, "complex": z, "transposed": z.T, "strided": z[:, ::3],
            "3-d": z.reshape(10, 4, 40), "vector": z[0], "d-256": big,
            "tiny-entries": 1e-160 * z, "nested-list": z[:3, :3].tolist(),
            "int": np.arange(12).reshape(3, 4), "complex64": z.astype(np.complex64),
            "empty-complex": np.zeros((0, 3), dtype=complex), "empty-real": np.zeros(0)}


FROBENIUS_INPUTS = _frobenius_inputs()


@pytest.mark.parametrize("name", FROBENIUS_INPUTS)
def test_frobenius_matches_numpy_norm_to_a_few_ulp(name):
    m = FROBENIUS_INPUTS[name]
    got, want = frobenius(m), float(np.linalg.norm(m))
    assert type(got) is float
    # ulps of the input's precision: complex64 sums in single precision
    eps = np.finfo(np.result_type(np.asarray(m), np.float32)).eps
    assert abs(got - want) <= 8 * eps * want


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("dtype, entry", [(float, e) for e in NON_FINITE] + [
    (complex, e) for e in NON_FINITE + [complex(np.inf, 1.0), complex(1.0, -np.inf),
                                        complex(np.inf, np.inf), complex(np.nan, 0.0),
                                        complex(np.inf, np.nan)]])
def test_frobenius_keeps_nan_and_inf(dtype, entry):
    m = np.random.default_rng(82).normal(size=(6, 5)).astype(dtype)
    m[2, 3] = entry
    want = float(np.linalg.norm(m))
    got = frobenius(m)
    assert not np.isfinite(got)
    np.testing.assert_array_equal(got, want)  # NaN for a NaN part, else inf


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=st.floats(-14, -3), b=st.floats(-14, -3), scale=st.floats(0, 1e3),
       defect=st.floats(0, 1))
def test_policy_is_monotone(a, b, scale, defect):
    lo, hi = sorted((10.0 ** a, 10.0 ** b))
    for threshold in (lambda t: strict_tol(t, scale), lambda t: acceptance_tol(t, scale),
                      cluster_gap, lambda t: gram_schmidt_cutoff(t, defect)):
        assert threshold(lo) <= threshold(hi)
    for tol in (lo, hi):
        assert strict_tol(tol, scale) <= acceptance_tol(tol, scale)


def test_eigenvalue_clusters_in_either_order():
    w = np.array([3.0, 3.0 + 5e-7, 1.0, 1.0, 0.5, 0.5 + 4e-6])  # gap scale max |w| = 3
    assert eigenvalue_clusters(w, 1e-6).tolist() == [0, 2, 4, 5]
    assert eigenvalue_clusters(w[::-1], 1e-6).tolist() == [0, 1, 2, 4]
    assert eigenvalue_clusters(w, 1e-7).tolist() == [0, 1, 2, 4, 5]
    assert eigenvalue_clusters(np.zeros(0), 1e-6).tolist() == [0]


def test_hermitian_eig_merges_only_below_a_tenth_of_tol():
    # eigenvalues 1e-11 apart are one cluster at the default tolerance and
    # two at 1e-11; either way the reconstruction stays within tol
    u = haar_unitary(4, seed=3)
    m = u @ np.diag([2.0, 2.0 + 1e-11, 1.0, 0.0]) @ dagger(u)
    m = (m + dagger(m)) / 2
    for tol in (DEFAULT_TOL, 1e-11):
        w, q = hermitian_eig(m, tol=tol)
        assert np.linalg.norm(q @ np.diag(w) @ dagger(q) - m) < tol
        assert np.linalg.norm(dagger(q) @ q - np.eye(4)) < 1e-13
    raw = np.linalg.eigh(m)[1][:, ::-1]
    _, q_loose = hermitian_eig(m)
    _, q_tight = hermitian_eig(m, tol=1e-11)
    # the tight call keeps the solver's vectors (up to phase) for the split pair
    assert abs(abs(np.vdot(q_tight[:, 0], raw[:, 0])) - 1) < 1e-9
    assert np.linalg.norm(q_loose[:, :2] @ dagger(q_loose[:, :2])
                          - raw[:, :2] @ dagger(raw[:, :2])) < 1e-9


# the completion kernel

@pytest.mark.parametrize("seed,dim,cols", [(1, 5, 2), (2, 8, 5), (3, 12, 1), (4, 6, 6),
                                           (5, 6, 0)])
def test_complete_isometry_matches_padded_complete_to_unitary(seed, dim, cols):
    v = haar_isometry(dim, cols, seed=seed)
    u = complete_isometry(v)
    padded = np.zeros((dim, dim), dtype=complex)
    padded[:, :cols] = v
    assert np.max(np.abs(u - complete_to_unitary(padded, dim))) < 1e-12
    assert np.array_equal(u[:, :cols], v)
    assert np.linalg.norm(dagger(u) @ u - np.eye(dim)) < 1e-12


# the coordinate C frame of construct_recovery: its first columns are zero in
# I - V V^dag and dropped up front, the others are standard vectors
@pytest.mark.parametrize("dim,cols", [(7, 3), (40, 32), (64, 8), (9, 9), (6, 0), (33, 1)])
def test_complete_isometry_of_coordinate_frame_is_the_identity(dim, cols):
    assert np.array_equal(complete_isometry(np.eye(dim)[:, :cols]), np.eye(dim))


def test_coordinate_frame_gram_schmidt_is_the_identity_at_every_width():
    # recovery_to_correction takes the completion of that frame to be I
    # without running it: the index-ordered Gram-Schmidt equals I entry for
    # entry (a zero may carry a sign, which no later product turns into a
    # nonzero value)
    for dim in range(1, 49):
        eye = np.eye(dim)
        for cols in range(dim + 1):
            v = eye[:, :cols]
            rest = _index_ordered_basis(eye - v @ dagger(v), dim - cols,
                                        gram_schmidt_cutoff(DEFAULT_TOL, 0.0))
            assert np.array_equal(np.hstack([v, rest]), eye), (dim, cols)


@pytest.mark.parametrize("bad", ["scaled", "nan", "dependent"])
def test_complete_isometry_rejects_non_isometries(bad):
    v = haar_isometry(6, 3, seed=9)
    if bad == "scaled":
        v = 1.01 * v
    elif bad == "nan":
        v[2, 1] = np.nan
    else:
        v[:, 2] = v[:, 1]
    with pytest.raises(NotPartialIsometry):
        complete_isometry(v)


def test_orthonormal_complement_of_a_near_projector_avoids_its_range():
    # a projector defect above the old absolute 1e-6 cut-off: the rounding
    # (I - p) e_j left by the first coordinates, which span range(p), must
    # not be normalized into "complement" vectors
    rng = np.random.default_rng(11)
    v = np.eye(8)[:, :4] + 1e-5 * (rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4)))
    p = v @ dagger(v)
    comp = np.column_stack(orthonormal_complement(p, tol=1e-4))
    assert comp.shape == (8, 4)
    span = np.linalg.qr(v)[0]
    assert np.linalg.norm(dagger(span) @ comp) < 1e-3
    assert np.linalg.norm(dagger(comp) @ comp - np.eye(4)) < 1e-12


@pytest.mark.parametrize("draw", range(5))
def test_recovery_at_loose_tol_of_a_kicked_channel_is_unitary(draw):
    ch, dec = planted_channel(2, 2, 8, 3, seed=78)
    rng = np.random.default_rng(780 + draw)
    kicked = KrausChannel([k + 1e-6 * (rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape))
                           for k in ch.kraus], require_tp=False, tol=1e-4)
    cert = check_correctable(kicked, dec, tol=1e-4)
    assert cert.passed
    res = construct_recovery(kicked, dec, cert, tol=1e-4)
    u = res.u_recovery
    assert np.linalg.norm(dagger(u) @ u - np.eye(8)) < 1e-4
    assert res.residual < 1e-4


# verdicts of kicked planted channels, on a log grid around tol

def kicked(kraus, direction, eps, tol):
    return KrausChannel([k + eps * g for k, g in zip(kraus, direction)], require_tp=False,
                        tol=tol)


def ginibre_like(kraus, rng):
    return [rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape) for k in kraus]


def pair_margin(ch, dec, tol):
    """Worst ratio of the pair factorization residual to its stated threshold
    strict_tol(tol, ||E_a^dag E_b||_F), pair by pair."""
    d_a, d_b = dec.d_a, dec.d_b
    worst = 0.0
    for a in ch.kraus:
        for b in ch.kraus:
            pair = dagger(a) @ b
            code = dagger(dec.w) @ pair @ dec.w
            x = partial_trace_b(code, d_a, d_b) / d_b
            residual = np.linalg.norm(code - np.kron(x, np.eye(d_b)))
            worst = max(worst, residual / strict_tol(tol, np.linalg.norm(pair)))
    return worst


def is_monotone_flip(verdicts):
    """True ... True False ... False."""
    return verdicts == sorted(verdicts, reverse=True)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), log_tol=st.integers(-11, -6))
def test_correctable_verdict_is_monotone_and_flips_at_its_threshold(seed, log_tol):
    tol = 10.0 ** log_tol
    ch, dec = planted_channel(2, 2, 8, 3, seed=seed)
    direction = ginibre_like(ch.kraus, np.random.default_rng(seed + 1))
    verdicts, margins = [], []
    for eps in tol * np.logspace(-2, 2, 17):
        noisy = kicked(ch.kraus, direction, eps, tol)
        cert = check_correctable(noisy, dec, tol=tol)
        margin = pair_margin(noisy, dec, tol)
        stated = (margin <= 1 and cert.f_min_eigenvalue >= -strict_tol(
            tol, np.linalg.eigvalsh(cert.f_matrix)[-1]))
        if stated:
            stated = cert.g_a_residual <= strict_tol(tol, dec.d_a * dec.d_b)
        assert cert.passed == stated
        verdicts.append(cert.passed)
        margins.append(margin)
    assert is_monotone_flip(verdicts)
    assert verdicts[0] and not verdicts[-1]
    assert margins == sorted(margins)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), log_tol=st.integers(-11, -6))
def test_noiseless_verdict_is_monotone_and_flips_at_its_threshold(seed, log_tol):
    tol = 10.0 ** log_tol
    ch, dec = planted_channel(2, 2, 8, 3, seed=seed, unital=True)
    base = compose(dual(ch), ch)  # noiseless on the planted code
    direction = ginibre_like(base.kraus, np.random.default_rng(seed + 1))
    verdicts, residuals = [], []
    for eps in tol * np.logspace(-2, 2, 17):
        result = check_noiseless(kicked(base.kraus, direction, eps, tol), dec, tol=tol)
        assert result.ok == (result.residual <= strict_tol(tol, dec.d_a * dec.d_b))
        verdicts.append(result.ok)
        residuals.append(result.residual)
    assert is_monotone_flip(verdicts)
    assert verdicts[0] and not verdicts[-1]
    assert residuals == sorted(residuals)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), log_tol=st.integers(-12, -5),
       log_ratio=st.integers(-2, 2), unital_kick=st.booleans())
def test_find_ucc_on_kicked_channels_reports_or_raises_typed(seed, log_tol, log_ratio,
                                                              unital_kick):
    tol = 10.0 ** log_tol
    eps = tol * 10.0 ** log_ratio
    ch, _ = planted_channel(2, 2, 8, 3, seed=seed, unital=True)
    rng = np.random.default_rng(seed + 1)
    if unital_kick:
        # mix in a unitary with weight eps: unital and trace preserving
        kraus = [np.sqrt(1 - eps) * k for k in ch.kraus] + [np.sqrt(eps) * haar_unitary(8, rng)]
        noisy = KrausChannel(kraus, require_tp=False, tol=tol)
    else:
        noisy = kicked(ch.kraus, ginibre_like(ch.kraus, rng), eps, tol)
    try:
        report = find_ucc(noisy, seed=seed, tol=tol)
    except SubrecError:
        return
    assert isinstance(report, UccReport)
    assert all(isinstance(c, InternalContradiction) for c in report.contradictions)
    assert all(entry.residual <= acceptance_tol(tol) for entry in report.subsystems)


def exact_g_a_residual(ch, dec, g_a):
    """The exact worst mismatch of P_AB ∘ E^dag ∘ E ∘ P_AB against G_A (x) id_B
    over the matrix units, from the code-map kernel on the m^2 pairs."""
    n = dec.d_a * dec.d_b
    kw = np.asarray(ch.kraus) @ dec.w
    pairs = (kw.conj().transpose(0, 2, 1)[:, None] @ kw[None]).reshape(-1, n, n)
    return certify_code_map(pairs, dec.d_a, dec.d_b, superop=g_a).residual


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), log_tol=st.integers(-11, -6),
       log_ratio=st.floats(-2, 2), shape=st.sampled_from([(2, 2, 8, 3), (1, 3, 6, 2),
                                                          (3, 2, 12, 3)]))
def test_reported_g_a_residual_bounds_the_exact_one_and_keeps_its_verdict(seed, log_tol,
                                                                          log_ratio, shape):
    tol = 10.0 ** log_tol
    ch, dec = planted_channel(*shape, seed=seed)
    direction = ginibre_like(ch.kraus, np.random.default_rng(seed + 1))
    noisy = kicked(ch.kraus, direction, tol * 10.0 ** log_ratio, tol)
    cert = check_correctable(noisy, dec, tol=tol)
    if cert.g_a is None:  # a pair or F >= 0 failed first; no G_A identity to judge
        assert not cert.passed
        return
    exact = exact_g_a_residual(noisy, dec, cert.g_a)
    assert cert.g_a_residual >= exact
    assert cert.passed == (exact <= strict_tol(tol, dec.d_a * dec.d_b))


def test_g_a_identity_is_judged_by_the_bound_or_else_exactly(monkeypatch):
    # across a kick sweep through the threshold both paths occur: the bound
    # passes (no kernel call, the bound reported), or it fails and the exact
    # kernel decides and is reported
    import subrec.correctability as correctability

    exact_calls = []
    kernel = correctability.certify_code_map

    def spy(*args, **kwargs):
        exact_calls.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(correctability, "certify_code_map", spy)
    tol = 1e-9
    ch, dec = planted_channel(2, 2, 8, 3, seed=0)
    direction = ginibre_like(ch.kraus, np.random.default_rng(1))
    paths = set()
    for eps in tol * np.logspace(-2, 2, 17):
        exact_calls.clear()
        noisy = kicked(ch.kraus, direction, eps, tol)
        cert = check_correctable(noisy, dec, tol=tol)
        if cert.g_a is None:
            continue
        exact = exact_g_a_residual(noisy, dec, cert.g_a)
        if exact_calls:
            paths.add("exact")
            assert cert.g_a_residual == exact
        else:
            paths.add("bound")
            assert exact <= cert.g_a_residual <= strict_tol(tol, 4)
    assert paths == {"bound", "exact"}
