"""Property tests on the binary-unitary family E = p id + (1 - p) U . U^dag.

For a two-qubit unitary U with interleaved eigenvalue angles
t1 < t2 < t3 < t4, the chords [e^{i t1}, e^{i t3}] and [e^{i t2}, e^{i t4}]
cross at a point lambda of the rank-2 numerical range of U (Choi, Kribs &
Życzkowski, Linear Algebra Appl. 418 (2006)), and the code W built from the
crossing satisfies W^dag U W = lambda I: a correctable qubit whose recovery
is not a unitary correction, since the fixed points of E^dag ∘ E are four
classical sectors.  The angles are drawn with every gap between neighbours
on the circle, the wrap-around one included, at least ``MIN_GAP``; near-
degenerate spectra, with a gap of exactly ``MIN_GAP``, are drawn whenever a
weight below is 0, and are also given as explicit examples.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subrec import (DemoSpec, check_correctable, construct_recovery, demo_build, find_ucc,
                    intersect_chords)
from subrec.linalg import DEFAULT_TOL, acceptance_tol, dagger

MIN_GAP = 1e-3


def _angles(weights, offset):
    """Four angles in [0, 2 pi) whose four gaps on the circle are MIN_GAP plus
    the share ``weights`` gives each of the rest; ``offset`` in [0, 0.99]
    places t1 inside the wrap-around gap, clear of its end at 2 pi."""
    total = sum(weights)
    spare = 2 * math.pi - 4 * MIN_GAP
    gaps = [MIN_GAP + spare * (w / total if total else 0.25) for w in weights]
    t1 = offset * gaps[3]
    return tuple(t1 + sum(gaps[:k]) for k in range(4))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(weights=st.lists(st.floats(0, 1), min_size=4, max_size=4),
       offset=st.floats(0, 0.99), p=st.floats(0.05, 0.95),
       seed=st.integers(0, 2**16))
@example(weights=[0, 1, 1, 1], offset=0.5, p=0.5, seed=0)  # t1, t2 MIN_GAP apart
@example(weights=[1, 1, 0, 1], offset=0.0, p=0.05, seed=1)  # t3, t4 MIN_GAP apart
@example(weights=[1, 1, 1, 0], offset=0.9, p=0.95, seed=2)  # across 0 = 2 pi
@example(weights=[0, 1, 0, 1], offset=0.3, p=0.3, seed=3)  # two close pairs
@example(weights=[0, 0, 1, 1], offset=0.7, p=0.7, seed=4)  # three close angles
@example(weights=[0, 0, 0, 1], offset=0.99, p=0.5, seed=5)  # all four within 3 MIN_GAP
def test_chord_intersection_code_is_correctable_and_not_unitarily_correctable(
        weights, offset, p, seed):
    thetas = _angles(weights, offset)
    assert 0 <= thetas[0] < thetas[1] < thetas[2] < thetas[3] < 2 * math.pi
    ch, dec = demo_build(DemoSpec(name="binary-unitary", p=p, thetas=thetas, seed=seed))

    cert = check_correctable(ch, dec)
    assert cert.passed

    _, _, lam = intersect_chords(thetas)
    u = ch.kraus[1] / np.sqrt(1 - p)
    assert np.linalg.norm(dagger(dec.w) @ u @ dec.w - lam * np.eye(2)) < 1e-12

    res = construct_recovery(ch, dec, cert)
    assert res.residual <= acceptance_tol(DEFAULT_TOL)

    report = find_ucc(ch)
    assert report.subsystems == [] and not report.contradictions
    assert report.classical_sectors == [(1, 1)] * 4
