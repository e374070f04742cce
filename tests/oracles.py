"""Independent brute-force oracles the tests check the library against.

Everything here deliberately avoids the code paths it is used to
verify: the superoperator factorization test works on the full matrix
by reshaping, the commutant dimension comes from an elementwise linear
system, fixed points are counted from a dense eigendecomposition, and
majorization inputs are produced by explicit Birkhoff mixtures of
permutations.
"""

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
