"""Independent brute-force oracles the tests check the library against.

Everything here deliberately avoids the code paths it is used to
verify: the superoperator factorization test works on the full matrix
by reshaping, the commutant dimension comes from an elementwise linear
system, fixed points are counted from a dense eigendecomposition, and
majorization inputs are produced by explicit Birkhoff mixtures of
permutations.  Ranks come from a plain singular value count, partial
traces from strided slices, and the unital rank-support theorem is
checked condition by condition on dense operators.  Collective rotation
noise is built from the total spin operators, and its block list is the
Schur-Weyl decomposition, counted in closed form; a channel with any
prescribed interaction algebra is planted from Haar unitaries.

Nothing here imports the library (``tests/test_oracles.py`` enforces it).
"""

from types import SimpleNamespace

import numpy as np


def dag(m):
    return m.conj().T


def kraus_apply(kraus, x):
    return sum(k @ x @ dag(k) for k in kraus)


def compressed_superop(ch, dec):
    """Superoperator matrix of P_AB ∘ E^dag ∘ E ∘ P_AB in code coordinates.

    Built column by column by acting on matrix units, not from Kraus
    pair factorizations.
    """
    d_ab = dec.d_a * dec.d_b
    w = dec.w
    kraus = list(ch.kraus)
    dual_kraus = [dag(k) for k in kraus]
    s = np.zeros((d_ab * d_ab, d_ab * d_ab), dtype=complex)
    for col in range(d_ab * d_ab):
        unit = np.zeros((d_ab, d_ab), dtype=complex)
        unit[col % d_ab, col // d_ab] = 1.0  # vec column-stacking
        out = dag(w) @ kraus_apply(dual_kraus, kraus_apply(kraus, w @ unit @ dag(w))) @ w
        s[:, col] = out.flatten(order="F")
    return s


def superop_tensor_factorizes(ch, dec, tol=1e-9):
    """Brute-force test of the testable condition via superoperator matrices.

    Checks whether the compressed superoperator equals G_A (x) id_B for
    some map G_A by averaging the B superindices and comparing the
    reconstruction, i.e. the condition is tested on a complete operator
    basis at once.

    Returns (verdict, residual, g_matrix).
    """
    d_a, d_b = dec.d_a, dec.d_b
    s = compressed_superop(ch, dec)
    # vec index of entry (i*d_b + k, j*d_b + l) decomposes F-style as
    # k + d_b i + d_a d_b l + d_a d_b^2 j, so the 8 axes come out as
    # (k, i, l, j) for the output and (k', i', l', j') for the input
    t = s.reshape(d_b, d_a, d_b, d_a, d_b, d_a, d_b, d_a, order="F")
    # G_A candidate: average the diagonal of the B superindices
    g = np.einsum("aibjaubv->ijuv", t) / (d_b * d_b)
    eye_b = np.eye(d_b)
    model = np.einsum("ijuv,kK,lL->kiljKuLv", g, eye_b, eye_b)
    residual = float(np.linalg.norm(t - model))
    g_mat = g.reshape(d_a * d_a, d_a * d_a, order="F")
    return residual <= tol * max(1.0, float(np.linalg.norm(s))), residual, g_mat


def commutant_dimension(ops, dim, tol=1e-8):
    """dim of {X : XA = AX, XA^dag = A^dag X} via an elementwise system."""
    rows = []
    for a in list(ops) + [dag(a) for a in ops]:
        for i in range(dim):
            for j in range(dim):
                row = np.zeros(dim * dim, dtype=complex)
                # (XA - AX)_{ij} = sum_k X_ik A_kj - A_ik X_kj
                for k in range(dim):
                    row[i * dim + k] += a[k, j]
                    row[k * dim + j] -= a[i, k]
                rows.append(row)
    if not rows:
        return dim * dim
    system = np.vstack(rows)
    gram = dag(system) @ system
    eigs = np.linalg.eigvalsh(gram)
    scale = max(1.0, float(eigs[-1]))
    return int(np.sum(eigs < tol * scale))


def fixed_space_dimension(superop_matrix, tol=1e-7):
    """Count of eigenvalues of the superoperator within tol of 1."""
    eigs = np.linalg.eigvals(superop_matrix)
    return int(np.sum(np.abs(eigs - 1.0) < tol))


def birkhoff_bistochastic(n, n_perms, rng):
    """Convex combination of permutation matrices; exactly bistochastic."""
    weights = rng.dirichlet(np.ones(n_perms))
    out = np.zeros((n, n))
    for w in weights:
        perm = rng.permutation(n)
        out[np.arange(n), perm] += w
    return out


def prefix_majorizes(q, p, tol=1e-9):
    """Plain-loop majorization check on sorted spectra."""
    sq, sp = 0.0, 0.0
    for k in range(len(q)):
        sq += q[k]
        sp += p[k]
        if sp > sq + tol:
            return False
    return abs(sp - sq) <= tol


def relative_rank(m, tol=1e-9):
    """Number of singular values above ``tol`` times the largest one."""
    s = np.linalg.svd(np.asarray(m), compute_uv=False)
    return int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0


def partial_trace_b(m, d_a, d_b):
    """Tr_B of an operator on H_A (x) H_B, index a * d_B + b: the sum of the
    d_B strided d_A x d_A slices that keep b fixed."""
    assert m.shape == (d_a * d_b, d_a * d_b)
    return sum(m[k::d_b, k::d_b] for k in range(d_b))


def unital_rank_support(kraus, w, tol=1e-9, *, d_a):
    """The three conditions of the unital rank-support theorem for the code
    of the isometry ``w`` (factors d_A, d_B = columns / d_A):
    ``(support containment, rank equality, fixed point)``, that is
    supp E^dag∘E(P) ⊆ supp P, rank E(P) = rank P and E^dag∘E(P) = P for
    P = w w^dag.  For unital E and a correctable subsystem, each holds
    exactly when the subsystem is unitarily correctable, so the three agree
    (Kribs & Spekkens, PRA 74, 042329 (2006)).  Raises ValueError outside
    those hypotheses: a channel that is not unital, or a code that fails
    ``superop_tensor_factorizes``.
    """
    d = w.shape[0]
    if np.linalg.norm(kraus_apply(kraus, np.eye(d)) - np.eye(d)) > tol * max(1.0, np.sqrt(d)):
        raise ValueError("the theorem holds for unital channels")
    code = SimpleNamespace(w=w, d_a=d_a, d_b=w.shape[1] // d_a)
    if not superop_tensor_factorizes(SimpleNamespace(kraus=kraus), code, tol)[0]:
        raise ValueError("the theorem assumes a correctable subsystem")
    p = w @ dag(w)
    out = kraus_apply(kraus, p)
    x = kraus_apply([dag(k) for k in kraus], out)
    p_perp = np.eye(d) - p
    leak = np.linalg.norm(p_perp @ x @ p_perp) + np.linalg.norm(p_perp @ x @ p)
    return (bool(leak <= tol * max(1.0, np.linalg.norm(x))),
            relative_rank(out, tol) == relative_rank(p, tol),
            bool(np.linalg.norm(x - p) <= tol * max(1.0, np.linalg.norm(p))))


def extract_common_factor(outputs, d_c, d_b, basis_b):
    """Given outputs[j] =? omega (x) basis_b[j], find omega and the worst error.

    Used for the d_A = 1 recovery verification: the common factor is
    read from the slice with the largest diagonal weight and compared
    across every basis element.
    """
    # trace over B against the dual basis to get candidate omega
    omega = None
    for j, sb in enumerate(basis_b):
        if np.trace(sb) != 0:
            blk = outputs[j].reshape(d_c, d_b, d_c, d_b)
            omega = np.einsum("ikjk->ij", blk) / np.trace(sb)
            break
    worst = 0.0
    for j, sb in enumerate(basis_b):
        model = np.kron(omega, sb)
        worst = max(worst, float(np.linalg.norm(outputs[j] - model)))
    return omega, worst


def remix_mismatch(ch, dec, u_mix):
    """Worst mismatch of the remixed family on the I_A slice, written out.

    G_a W = sum_b E_b W (U_ab^dag (x) I_B) for the (m d_A) x (m d_A) matrix
    ``u_mix`` = U; then the maximum over (k, l) of
    ||sum_a G_a W (I_A (x) |k><l|) (G_a W)^dag - the same for E_a W||_F.
    """
    d_a, d_b, w = dec.d_a, dec.d_b, dec.w
    gw = [sum(ch.kraus[b] @ w @ np.kron(dag(u_mix[a * d_a:(a + 1) * d_a,
                                                  b * d_a:(b + 1) * d_a]), np.eye(d_b))
              for b in range(ch.m)) for a in range(ch.m)]
    ew = [k @ w for k in ch.kraus]
    worst = []
    for k in range(d_b):
        for l in range(d_b):
            unit_b = np.zeros((d_b, d_b))
            unit_b[k, l] = 1.0
            x = np.kron(np.eye(d_a), unit_b)
            diff = sum(g @ x @ dag(g) for g in gw) - sum(e @ x @ dag(e) for e in ew)
            worst.append(np.linalg.norm(diff))
    return float(np.max(worst))


def collective_rotation(n_qubits, thetas=(0.7, 1.1, 0.4)):
    """Kraus operators of collective rotation noise on ``n_qubits`` qubits:
    exp(-i theta_a J_a) with weights 1/3 for the total spin J_x, J_y, J_z."""
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    kraus = []
    for pauli, theta in zip(paulis, thetas):
        j = sum(np.kron(np.kron(np.eye(2 ** k), pauli / 2), np.eye(2 ** (n_qubits - k - 1)))
                for k in range(n_qubits))
        lam, v = np.linalg.eigh(j)
        kraus.append(np.sqrt(1 / 3) * (v * np.exp(-1j * theta * lam)) @ dag(v))
    return kraus


def schur_weyl(n_qubits):
    """(2J + 1, m_J) for every total spin J of n qubits, with
    m_J = C(N, N/2 - J) - C(N, N/2 - J - 1)."""
    from math import comb

    out = []
    for k in range(n_qubits // 2 + 1):  # k = N/2 - J
        out.append((n_qubits - 2 * k + 1, comb(n_qubits, k) - (comb(n_qubits, k - 1) if k else 0)))
    return out


def haar_unitary(n, rng):
    """Haar-random n x n unitary: QR of a complex Ginibre matrix, with the
    phases of R's diagonal moved into Q (Mezzadri, Notices AMS 54 (2007) 592)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def planted_algebra(blocks, m, seed):
    """Kraus operators E_a = sqrt(p_a) V (⊕_k U_{a,k} (x) I_{ν_k}) V^dag of a
    unital channel on d = Σ μ_k ν_k, for ``blocks`` = [(μ_k, ν_k), ...],
    with Haar U_{a,k} and V and Dirichlet weights p.  For m >= 3 (m = 2
    leaves U_1^dag U_2 alone, which generates a commutative algebra) the E_a,
    and the products E_b^dag E_a, generate ⊕ M_μk (x) I_νk almost surely, so
    the fixed points of E and of E^dag ∘ E are ⊕ I_μk (x) M_νk (Kribs, Proc.
    Edinburgh Math. Soc. 46 (2003) 421): a (μ_k, ν_k) subsystem for ν_k > 1
    and a classical sector for ν_k = 1."""
    rng = np.random.default_rng(seed)
    d = sum(mu * nu for mu, nu in blocks)
    v = haar_unitary(d, rng)
    weights = rng.dirichlet(np.ones(m))
    kraus = []
    for p in weights:
        x = np.zeros((d, d), dtype=complex)
        off = 0
        for mu, nu in blocks:
            x[off:off + mu * nu, off:off + mu * nu] = np.kron(haar_unitary(mu, rng), np.eye(nu))
            off += mu * nu
        kraus.append(np.sqrt(p) * v @ x @ dag(v))
    return kraus


def planted_kraus(d_a, d_b, dim, n_kraus, rng, unital=False):
    """The planted demo's Kraus list
    E_a = U_0 (W (K_a (x) I_B) W^dag + c_a (I - W W^dag)), written out as a
    list with the demo's draws in its order from ``rng``: the isometry W, the
    inner channel {K_a} (Dirichlet-weighted Haar unitaries when ``unital``,
    else the row blocks of a Haar isometry), the Haar U_0 and the unit
    vector c."""
    w = haar_unitary(dim, rng)[:, :d_a * d_b]
    if unital:
        weights = rng.dirichlet(np.ones(n_kraus))
        inner = [np.sqrt(p) * haar_unitary(d_a, rng) for p in weights]
    else:
        v = haar_unitary(d_a * n_kraus, rng)[:, :d_a]
        inner = [v[a * d_a:(a + 1) * d_a, :] for a in range(n_kraus)]
    u0 = haar_unitary(dim, rng)
    c = rng.normal(size=n_kraus) + 1j * rng.normal(size=n_kraus)
    c /= np.linalg.norm(c)
    p_perp = np.eye(dim) - w @ w.conj().T
    return [u0 @ (w @ np.kron(k, np.eye(d_b)) @ w.conj().T + ca * p_perp)
            for k, ca in zip(inner, c)]
