import numpy as np
import pytest

from subrec import BadParams, DemoSpec, demo_build, planted_channel
from subrec.demos import intersect_chords
from subrec.linalg import dagger

from oracles import planted_kraus


def test_phase_flip_kraus_values():
    ch, dec = demo_build(DemoSpec(name="phase-flip", p=0.3))
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    assert np.linalg.norm(ch.kraus[0] - np.sqrt(0.3) * np.kron(z, eye)) < 1e-12
    assert np.linalg.norm(ch.kraus[1] - np.sqrt(0.7) * np.kron(eye, z)) < 1e-12
    assert dec.d_a == 1 and dec.d_b == 2


def test_phase_flip_bad_p():
    with pytest.raises(BadParams):
        demo_build(DemoSpec(name="phase-flip", p=1.0))
    with pytest.raises(BadParams):
        demo_build(DemoSpec(name="phase-flip", p=-0.1))


def test_swap_is_permutation():
    ch, dec = demo_build(DemoSpec(name="swap"))
    s = ch.kraus[0]
    assert np.linalg.norm(s @ s - np.eye(4)) < 1e-12
    v = np.kron(np.array([1.0, 2.0]), np.array([3.0, 5.0]))
    swapped = np.kron(np.array([3.0, 5.0]), np.array([1.0, 2.0]))
    assert np.linalg.norm(s @ v - swapped) < 1e-12
    assert dec.d_a == 2 and dec.d_b == 2
    assert np.linalg.norm(dec.w - np.eye(4)) < 1e-12


def test_intersect_chords_solves_linear_system():
    thetas = (0.3, 1.2, 2.5, 4.0)
    s, t, lam = intersect_chords(thetas)
    l = np.exp(1j * np.asarray(thetas))
    assert abs(s * l[0] + (1 - s) * l[2] - lam) < 1e-12
    assert abs(t * l[1] + (1 - t) * l[3] - lam) < 1e-12
    assert 0 < s < 1 and 0 < t < 1
    assert abs(lam) < 1.0


@pytest.mark.parametrize("seed", range(3))
def test_binary_unitary_pup_identity(seed):
    thetas = (0.3, 1.2, 2.5, 4.0)
    ch, dec = demo_build(DemoSpec(name="binary-unitary", p=0.5,
                                  thetas=thetas, seed=seed))
    _, _, lam = intersect_chords(thetas)
    u = ch.kraus[1] / np.sqrt(0.5)
    p = dec.p_ab
    assert np.linalg.norm(p @ u @ p - lam * p) < 1e-10


def test_binary_unitary_bad_thetas():
    with pytest.raises(BadParams):
        demo_build(DemoSpec(name="binary-unitary", thetas=(1.2, 0.3, 2.5, 4.0)))
    with pytest.raises(BadParams):
        demo_build(DemoSpec(name="binary-unitary", thetas=(0.3, 1.2, 2.5, 7.0)))


def test_planted_shapes_and_unitality():
    ch, dec = demo_build(DemoSpec(name="planted", d_a=2, d_b=2, dim=8,
                                  n_kraus=3, seed=1))
    assert ch.dim == 8 and ch.m == 3
    assert dec.d_a == 2 and dec.d_b == 2
    chu, _ = demo_build(DemoSpec(name="planted", d_a=2, d_b=2, dim=8,
                                 n_kraus=3, seed=1, unital=True))
    assert chu.is_unital


def test_planted_dimension_check():
    with pytest.raises(BadParams):
        demo_build(DemoSpec(name="planted", d_a=3, d_b=3, dim=8))


def test_all_demos_are_cptp():
    specs = [DemoSpec(name="phase-flip", p=0.4),
             DemoSpec(name="binary-unitary", p=0.6, seed=2),
             DemoSpec(name="swap"),
             DemoSpec(name="planted", seed=3)]
    for spec in specs:
        ch, _ = demo_build(spec)
        eye = np.eye(ch.dim)
        total = sum(dagger(k) @ k for k in ch.kraus)
        assert np.linalg.norm(total - eye) < 1e-10


def test_unknown_demo():
    with pytest.raises(BadParams):
        demo_build(DemoSpec(name="nope"))


@pytest.mark.parametrize("d_a, d_b, n_kraus", [(0, 2, 3), (2, 0, 3), (2, 2, 0), (-1, -1, 3),
                                               (2, 2, -1)])
def test_planted_rejects_empty_factors_before_drawing(d_a, d_b, n_kraus):
    rng = np.random.default_rng(7)
    with pytest.raises(BadParams):
        planted_channel(d_a, d_b, 8, n_kraus, rng)
    # no draw was taken: the generator still gives the instance of a fresh one
    ch, dec = planted_channel(2, 2, 8, 3, rng)
    fresh, fresh_dec = planted_channel(2, 2, 8, 3, np.random.default_rng(7))
    assert np.array_equal(dec.w, fresh_dec.w)
    assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, fresh.kraus))


@pytest.mark.parametrize("shape", [(4, 8, 40, 3, False), (2, 2, 256, 3, False),
                                   (2, 2, 12, 3, True)])
def test_planted_operators_equal_the_list_formula_bit_for_bit(shape):
    # the certify, wide and discover workload shapes: the operators written
    # into the one stack are those of the list formula, bit for bit
    d_a, d_b, dim, m, unital = shape
    for seed in (1, 2, 3):
        ch, _ = planted_channel(d_a, d_b, dim, m, np.random.default_rng(seed), unital)
        expected = planted_kraus(d_a, d_b, dim, m, np.random.default_rng(seed), unital)
        assert ch.kraus.tobytes() == np.stack(expected).tobytes()
