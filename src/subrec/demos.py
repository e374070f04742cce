"""Built-in demonstration channels with their candidate codes.

Four families:

* ``phase-flip``: two qubits under decoupled phase flips,
  E(rho) = p Z_1 rho Z_1 + (1-p) Z_2 rho Z_2, with the code
  span{|00>, |11>}.  The channel itself has no noiseless subsystem, yet
  that subspace is noiseless for E^dag ∘ E and unitarily correctable,
  with the controlled phase flip diag(1, 1, 1, -1) a valid correction.
* ``binary-unitary``: E(rho) = p rho + (1-p) U rho U^dag on two qubits
  with U having four distinct eigenvalues exp(i theta_j).  The
  fixed-point algebra of E^dag ∘ E is four classical sectors, yet the
  channel has a correctable qubit code built from the intersection of
  the eigenvalue chords: a correctable subsystem that is not unitarily
  correctable.
* ``swap``: the unitary swap on C^2 (x) C^2; both tensor factors return
  after a second swap, so the factor decomposition is unitarily
  correctable trivially.
* ``planted``: a random correctable instance, noise of the form
  U_0 ∘ (F_A (x) id_B) on an embedded code, with the planted
  decomposition returned as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel
from .errors import BadParams
from .random_ops import as_rng, haar_isometry, haar_unitary, random_channel, \
    random_unital_channel
from .subsystem import SubsystemDecomposition

__all__ = ["DemoSpec", "demo_build", "planted_channel", "DEMO_NAMES"]

DEMO_NAMES = ("phase-flip", "binary-unitary", "swap", "planted")


@dataclass
class DemoSpec:
    """Parameters of a built-in demo channel."""

    name: str
    p: float = 0.5
    thetas: tuple[float, float, float, float] = (0.3, 1.2, 2.5, 4.0)
    seed: int = 0
    d_a: int = 2
    d_b: int = 2
    dim: int = 8
    n_kraus: int = 3
    unital: bool = False


def _phase_flip(p: float):
    if not 0.0 < p < 1.0:
        raise BadParams(f"p must be in (0, 1), got {p}")
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    kraus = [np.sqrt(p) * np.kron(z, eye), np.sqrt(1.0 - p) * np.kron(eye, z)]
    w = np.zeros((4, 2), dtype=complex)
    w[0, 0] = 1.0  # |00>
    w[3, 1] = 1.0  # |11>
    return KrausChannel(kraus), SubsystemDecomposition(4, 1, 2, w)


def intersect_chords(thetas) -> tuple[float, float, complex]:
    """Intersection of the chords [e^{i t1}, e^{i t3}] and [e^{i t2}, e^{i t4}].

    Solves the 2 x 2 real system s l1 + (1-s) l3 = t l2 + (1-t) l4 and
    returns (s, t, lambda).  The interleaved ordering of the angles
    guarantees the chords cross inside the unit disc.
    """
    l = np.exp(1j * np.asarray(thetas, dtype=float))
    a = np.array([[ (l[0] - l[2]).real, -(l[1] - l[3]).real],
                  [ (l[0] - l[2]).imag, -(l[1] - l[3]).imag]])
    b = np.array([(l[3] - l[2]).real, (l[3] - l[2]).imag])
    s, t = np.linalg.solve(a, b)
    lam = s * l[0] + (1.0 - s) * l[2]
    return float(s), float(t), complex(lam)


def _binary_unitary(p: float, thetas, seed: int):
    if not 0.0 < p < 1.0:
        raise BadParams(f"p must be in (0, 1), got {p}")
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) != 4 or not (
            0.0 <= thetas[0] < thetas[1] < thetas[2] < thetas[3] < 2 * np.pi):
        raise BadParams("need 0 <= theta1 < theta2 < theta3 < theta4 < 2*pi")
    basis = haar_unitary(4, seed)
    u = basis @ np.diag(np.exp(1j * np.asarray(thetas))) @ basis.conj().T
    kraus = [np.sqrt(p) * np.eye(4, dtype=complex), np.sqrt(1.0 - p) * u]
    s, t, _ = intersect_chords(thetas)
    if not (0.0 < s < 1.0 and 0.0 < t < 1.0):
        raise BadParams("chords do not intersect; check the angle ordering")
    psi = np.sqrt(s) * basis[:, 0] + np.sqrt(1.0 - s) * basis[:, 2]
    phi = np.sqrt(t) * basis[:, 1] + np.sqrt(1.0 - t) * basis[:, 3]
    w = np.column_stack([psi, phi])
    return KrausChannel(kraus), SubsystemDecomposition(4, 1, 2, w)


def _swap():
    s = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            s[j * 2 + i, i * 2 + j] = 1.0
    return KrausChannel([s]), SubsystemDecomposition.trivial(2, 2)


def planted_channel(d_a: int, d_b: int, dim: int, n_kraus: int, seed=None,
                    unital: bool = False):
    """Random correctable instance U_0 ∘ (F_A (x) id_B) on an embedded code.

    The Kraus operators are
    ``E_a = U_0 (W (K_a (x) I_B) W^dag + c_a (I - W W^dag))`` with
    {K_a} a random channel on A (a mixture of unitaries when ``unital``),
    U_0 a Haar unitary and c a random unit vector, so the result is
    trace preserving (and unital iff F_A is).  Returns the channel and
    the planted decomposition.
    """
    # checked before the first draw, so valid instances keep their seed stream
    if min(d_a, d_b, n_kraus) < 1:
        raise BadParams(f"d_A, d_B and the Kraus count must be at least 1, "
                        f"got {d_a}, {d_b}, {n_kraus}")
    if d_a * d_b > dim:
        raise BadParams(f"d_A * d_B = {d_a * d_b} exceeds dim = {dim}")
    rng = as_rng(seed)
    w = haar_isometry(dim, d_a * d_b, rng)
    inner = random_unital_channel(d_a, n_kraus, rng) if unital \
        else random_channel(d_a, n_kraus, rng)
    u0 = haar_unitary(dim, rng)
    c = rng.normal(size=n_kraus) + 1j * rng.normal(size=n_kraus)
    c /= np.linalg.norm(c)
    p_perp = np.eye(dim) - w @ w.conj().T
    # each E_a is written into one stack, which the channel keeps
    kraus = np.empty((n_kraus, dim, dim), dtype=complex)
    for e_a, k, ca in zip(kraus, inner.kraus, c):
        np.matmul(u0, w @ np.kron(k, np.eye(d_b)) @ w.conj().T + ca * p_perp, out=e_a)
    return KrausChannel(kraus), SubsystemDecomposition(dim, d_a, d_b, w)


def demo_build(spec: DemoSpec):
    """Build a demo channel; returns (channel, candidate decomposition)."""
    if spec.name == "phase-flip":
        return _phase_flip(spec.p)
    if spec.name == "binary-unitary":
        return _binary_unitary(spec.p, spec.thetas, spec.seed)
    if spec.name == "swap":
        return _swap()
    if spec.name == "planted":
        return planted_channel(spec.d_a, spec.d_b, spec.dim, spec.n_kraus,
                               spec.seed, spec.unital)
    raise BadParams(f"unknown demo '{spec.name}'; choose from {DEMO_NAMES}")
