"""Construction of the unitary recovery operation for a correctable subsystem.

Given a channel E and a correctable subsystem B, there is a unitary U
and a subsystem C such that

    U ∘ E ∘ P_AB = F_{C|A} (x) id_B,

i.e. a single unitary returns the protected B factor, with the
complementary factor moved to C.  The construction:

1. assemble the positive block matrix F = (F_ab) from the
   correctability certificate and diagonalize it, U F U^dag = D, with
   ``hermitian_eig``'s symmetry check and descending order; the
   eigenvectors are made canonical only in the clusters above the live
   cut-off, whose columns set U's live rows, the closed-form Kraus list
   and the correction, while F's null cluster keeps the solver's
   phase-fixed vectors, which reach only the step 2 and step 3 residuals;
2. remix the code-projected Kraus operators into
   G_a W = sum_b E_b W (U_ab^dag (x) I_B), whose ranges are mutually
   orthogonal, (G_a W)^dag (G_b W) = delta_ab D_aa (x) I_B; this identity
   is checked, and G_a off the code is never formed.  With the compressed
   pairs W^dag E_a^dag E_b W = F_ab (x) I_B + Δ_ab of the certificate,
   G^dag G - Λ (x) I_B = (q^dag F q - Λ) (x) I_B + (q^dag (x) I_B) Δ (q (x) I_B)
   (Λ = diag(max(lambda, 0))), so no Gram block exceeds
   sqrt(d_B) ||q^dag F q - Λ||_F + (1 + ||q^dag q - I||_F) (sum_ab r_ab^2)^(1/2),
   r_ab = ||Δ_ab||_F, plus a rounding allowance (below);
3. bound how far the remixed family is from reproducing the channel on
   the I_A slice, G(k) G(l)^dag = E(k) E(l)^dag for the column blocks
   G(k), E(k) of the B index k, the columns G_a W(|i> (x) |k>) and
   E_b W(|j> (x) |k>) in (a, i) and (b, j) order: the remix is
   G(k) = E(k) q with q the eigenvectors of F, so the mismatch is
   E(k) (q q^dag - I) E(l)^dag, of norm at most
   ||E(k)||_2 ||q q^dag - I||_F ||E(l)||_2 <= ||q q^dag - I||_F max_k ||E(k)||_F^2;
   a unitary remix leaves the channel unchanged, so this only reports how
   far q is from unitary, and no verdict reads it;
4. with D_aa diagonal, the polar factor V_a of G_a P_AB against
   sqrt(D_aa) (x) I_B is the closed form
   V_a W(|l> (x) |k>) = G_a W(|l> (x) |k>) / sqrt(lambda_l) for each live
   eigenvalue lambda_l of block a and each B basis vector k; these images,
   gathered in (a, l, k) order from the operators of step 2, are the
   first columns of a unitary V, completed by the unitary factor of their
   complete Householder QR (``complete_isometry``); the recovery is
   U = V^dag.  Only V's action on E's images of the code is fixed, so any
   completion serves;
5. certify U ∘ E ∘ P_AB = F_{C|A} (x) id_B on U E_b W (below), with the
   closed form of F_{C|A}: E_b W = sum_a G_a W (U_ab (x) I_B) gives one
   operator K_b = Λ_live^{1/2} U[live rows, b-th column block] per
   original Kraus index b.

Steps 1, 2 and 4 build the recovery; steps 3 and 5 check it.
``find_ucc`` runs only the building steps, since it certifies the final
correction on E itself.

Step 2 reads its bound off the certificate when it was made from the very
channel and decomposition objects passed in: it carries the stack E_a W,
which the builder reuses, and the pair residuals r_ab.  The bound also
carries an allowance for the rounding of the exact kernel, a relative
(d + m d_A) eps times ||E W||_F^2 = d_B tr F, so it stays above the value
that kernel computes.  A bound within ``acceptance_tol(tol, lambda_max)``
is the reported value; where it exceeds that threshold, or the
certificate belongs to other, value-equal objects, the exact m^2 Gram
blocks run, in groups of Kraus rows, as many as fit in max(m n^2, 2^16)
entries (n = d_A d_B).  The verdict of the step 2 gate is therefore the
exact one.  Step 3 is the bound above on every path, read off the stack
E_a W, which the builder holds for either certificate, so it is the same
for both; every reported operator is the same either way.

The C (x) B frame the builder emits is the first n_cb = dim C d_B
standard basis vectors, in (a, l, k) order, a coordinate frame made with
defect 0.0 and no Gram product, whose Householder completion is I
exactly: ``recovery_to_correction`` pairs it onto W without completing
it, and completes only a general frame.

Step 5 is the code-map identity of ``verify_correction`` and
``check_noiseless`` with the C (x) B frame, a coordinate frame of defect 0,
as output frame, and passes their gate: the product-form bound on U E_b W
(``subsystem._product_form_bound``), with the closed-form superop of the
factors it reads off, the K_b to rounding, within ``strict_tol(tol)`` (no
scale, so a reader's gate at any threshold down to that one sees the exact
verdict); otherwise, a NaN bound included, the residual and superop of
``certify_code_map``.  Forming U E_b W costs m d^2 d_A d_B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import KrausChannel
from .correctability import CorrectabilityCertificate
from .errors import (CertificateMismatch, NotPartialIsometry, NotTracePreserving,
                     NumericalDegeneracy)
from .linalg import (DEFAULT_TOL, _canonicalize_eigenvectors, _sorted_eigh, acceptance_tol,
                     complete_isometry, dagger, frobenius, strict_tol)
from .subsystem import SubsystemDecomposition, _certify_on_code, _row_group

__all__ = ["RecoveryResult", "construct_recovery", "recovery_to_correction",
           "verify_correction"]


@dataclass
class RecoveryResult:
    """Recovery unitary with its output subsystem and certificates.

    ``u_recovery`` is the d x d unitary U, whose first dim_C * d_B rows
    are the conjugated closed-form images G_a W(|l> (x) |k>) / sqrt(lambda_l);
    ``c_subsystem`` describes where B sits after the noise (the C (x) B
    embedding); ``f_ca_kraus`` is the closed-form Kraus list of F_{C|A},
    one d_C x d_A operator Λ_live^{1/2} U[live rows, b-th column block]
    per original Kraus index b; ``f_ca_superop`` is the d_C^2 x d_A^2
    matrix of F_{C|A}: the closed form of the factors read off U E_b W when
    ``residual`` is the bound, and the map ``certify_code_map`` extracts
    when it is that kernel's value, within ``residual`` of each other on
    every matrix unit;
    ``d_blocks`` records (a, D_aa, r_a) for blocks with nonzero rank;
    ``residual`` certifies the defining equation on a complete operator
    basis: the product-form upper bound on the exact residual whenever it
    is within ``strict_tol(tol)``, and the exact residual where it is not
    (module docstring); ``orthogonality_residual`` is the step 2 check,
    which also certifies the closed-form polar factor of step 4: from the
    caller's own certificate an upper bound read off F and the pair
    residuals whenever it passes ``acceptance_tol(tol, lambda_max)``, and
    exact where it does not.  ``g_action_residual`` is the step 3 upper bound
    ||q q^dag - I||_F max_k ||E(k)||_F^2 on every path (module docstring).

    The operators (``u_recovery``, ``c_subsystem``, ``f_ca_kraus``,
    ``f_ca_superop``) and ``residual`` read only F's eigenvectors above the
    live cut-off, which are canonical, so they do not depend on the
    eigensolver's choice of basis inside a degenerate cluster.  The last
    bits of the step 2 and 3 values depend on the solver's basis of F's
    null cluster.
    """

    u_recovery: np.ndarray
    c_subsystem: SubsystemDecomposition
    f_ca_kraus: list[np.ndarray]
    f_ca_superop: np.ndarray
    d_blocks: list[tuple[int, np.ndarray, int]]
    residual: float
    g_action_residual: float
    orthogonality_residual: float

    @property
    def dim_c(self) -> int:
        return self.c_subsystem.d_a


class _Built(NamedTuple):
    """Steps 1, 2 and 4 of the construction, with what steps 3 and 5 read."""

    u_recovery: np.ndarray
    c_subsystem: SubsystemDecomposition
    f_ca_kraus: list[np.ndarray]
    d_blocks: list[tuple[int, np.ndarray, int]]
    orthogonality_residual: float
    q: np.ndarray  # eigenvectors of F: the remix is G(k) = E(k) q
    kw: np.ndarray  # the code-projected Kraus operators E_b W


def _diagonalize_f(f: np.ndarray, tol: float):
    """Step 1: ``hermitian_eig`` of F, but canonical only in the clusters
    that meet the eigenvalues above the live cut-off (module docstring)."""
    lam, q = _sorted_eigh(f, tol)
    live = np.count_nonzero(lam > strict_tol(tol, lam[0] if lam.size else 1.0))
    return lam, _canonicalize_eigenvectors(lam, q, tol, leading=live)


def _orthogonality_residual(gw: np.ndarray, lam: np.ndarray, d_b: int) -> float:
    """The exact step 2 residual: the worst Gram block of
    (G_a W)^dag (G_b W) - delta_ab D_aa (x) I_B over the m^2 pairs."""
    m, _, n = gw.shape
    # rows a of Gram blocks in groups of at most max(m n^2, 2^16) entries, not
    # m^2 n^2; D_aa (x) I_B, each lambda of block a repeated d_B times, comes
    # off the diagonal of the (a, a) block in place
    d_diag = np.repeat(lam, d_b).reshape(m, n)
    diagonal = np.arange(n)
    group = _row_group(m * n * n, m * n * n)
    worst = []
    for start in range(0, m, group):
        grams = gw[start:start + group, None].conj().transpose(0, 1, 3, 2) @ gw
        rows = np.arange(len(grams))[:, None]
        grams[rows, rows + start, diagonal, diagonal] -= d_diag[start:start + len(grams)]
        worst.append(np.max(np.linalg.norm(grams, axis=(2, 3))))
    return float(np.max(worst))


def _build_recovery(ch: KrausChannel, dec: SubsystemDecomposition,
                    cert: CorrectabilityCertificate, tol: float) -> _Built:
    """Steps 1, 2 and 4: the recovery unitary and C frame, without certificates.

    Raises as :func:`construct_recovery` does; the step 2 orthogonality
    gate still runs, since step 4's closed-form polar factor rests on it.
    The C frame is the coordinate frame of the first dim C d_B standard
    basis vectors, an isometry exactly: its defect is 0.0, not measured.
    """
    if not cert.matches(ch, dec, tol=tol):
        raise CertificateMismatch("certificate was not produced from this channel/decomposition")
    if not cert.passed:
        raise CertificateMismatch("certificate did not pass; recovery needs a correctable subsystem")

    d, d_a, d_b, m = ch.dim, dec.d_a, dec.d_b, ch.m
    # a certificate made from these very objects carries E_b W and the pair
    # residuals r_ab; one made from equal copies is checked on its own
    own = cert.channel is ch and cert.decomposition is dec

    # 1. diagonalize F; eigenvalues in [-tol, 0) are numerical noise and
    # get clamped, anything lower invalidates the certificate.
    f = cert.f_matrix
    lam, q = _diagonalize_f(f, tol)
    scale = lam[0] if lam.size else 1.0
    cutoff = strict_tol(tol, scale)
    if lam.size and lam[-1] < -cutoff:
        raise CertificateMismatch(
            f"block matrix F has eigenvalue {lam[-1]:.3e}; not positive semidefinite")
    # ||E W||_F^2 = d_B tr F, before the clamp
    f_trace = float(np.sum(np.abs(lam)))
    lam = np.maximum(lam, 0.0)
    # U = q^dag gives U F U^dag = diag(lam); U_ab is its (a, b) block of d_A x d_A
    u = dagger(q)
    kw = cert.code_kraus if own else np.asarray(ch.kraus) @ dec.w
    ew = kw.reshape(m, d, d_a, d_b)
    gate = acceptance_tol(tol, scale)

    # 2. the modified Kraus family on the code, G_a W = sum_b E_b W (U_ab^dag (x) I_B),
    # has mutually orthogonal ranges; G_a off the code is never needed.  The
    # bound from the caller's own certificate comes first (module docstring),
    # the m^2 Gram blocks only where it fails the gate
    ortho_resid = float("inf")
    if own:
        # a relative allowance for the rounding of the exact kernel
        rounding = (d + m * d_a) * float(np.finfo(float).eps)
        delta_norm = float(np.linalg.norm(cert.pair_residuals))
        # G^dag G - Λ (x) I_B = (q^dag F q - Λ) (x) I_B + (q^dag (x) I_B) Δ (q (x) I_B),
        # with ||q||_2^2 <= 1 + ||q^dag q - I||_F, and `rounding` ||E W||_F^2
        # allowed for the rounding of the exact kernel
        mixed = u @ f @ q
        mixed[np.diag_indices(m * d_a)] -= lam
        ortho_resid = float(np.sqrt(d_b) * frobenius(mixed) + (
            1.0 + frobenius(u @ q - np.eye(m * d_a))) * (delta_norm + rounding * d_b * f_trace))
    # G_a W[:, (i, k)] = sum_(b, j) conj(U_ab)_ij E_b W[:, (j, k)]: one product of
    # conj(U), rows (a, i), and E_b W with rows (b, j) and columns (x, k)
    gw_ab = (u.conj() @ ew.transpose(0, 2, 1, 3).reshape(m * d_a, -1)).reshape(m, d_a, d, d_b)
    if not ortho_resid <= gate:
        ortho_resid = _orthogonality_residual(
            gw_ab.transpose(0, 2, 1, 3).reshape(m, d, d_a * d_b), lam, d_b)
        if not ortho_resid <= gate:
            raise NumericalDegeneracy(
                f"G_a ranges not orthogonal (residual {ortho_resid:.3e}); "
                "certificate tolerance too loose")

    # 4. the diagonal blocks of step 2 certify (G_a W)^dag (G_a W) = D_aa (x) I_B
    # with D_aa diagonal, so the polar factor of G_a P_AB sends
    # W(|l> (x) |k>) to G_a W(|l> (x) |k>) / sqrt(lambda_l) for live (a, l),
    # the columns in (a, l, k) order
    live = np.flatnonzero(lam > cutoff)
    if not live.size:
        raise CertificateMismatch(
            f"the channel vanishes on the code: every eigenvalue of F is at most "
            f"{cutoff:.3e}, so the output subsystem C is empty")
    d_blocks = [(a, np.diag(lam[a * d_a:(a + 1) * d_a]), int(r))
                for a, r in enumerate(np.bincount(live // d_a, minlength=m)) if r]
    g_cols = gw_ab.reshape(m * d_a, d, d_b)
    v_cb = (g_cols[live] / np.sqrt(lam[live])[:, None, None]).transpose(1, 0, 2).reshape(d, -1)
    n_cb = v_cb.shape[1]
    rank_c = n_cb // d_b
    try:
        v = complete_isometry(v_cb, tol)
    except NotPartialIsometry as exc:
        # the step 2 gate is absolute, so small live eigenvalues of F can pass
        # it and still leave these images far from an isometry
        raise NumericalDegeneracy(f"recovery images do not complete to a unitary: {exc}; "
                                  "certificate tolerance too loose") from exc

    # C (x) B embedding: the injection uses the first rank_c * d_B
    # standard basis vectors in (a, l, k) lexicographic order, of defect 0.0
    u_recovery = dagger(v)
    c_dec = SubsystemDecomposition._coordinate(d, rank_c, d_b)

    # closed-form F_{C|A}: E_b W = sum_a G_a W (U_ab (x) I_B), so its Kraus
    # operator for the original index b is K_b = Λ_live^{1/2} U[live, b-th
    # column block], the live rows in the (a, l) order of the C embedding
    k_live = np.sqrt(lam[live])[:, None] * u[live]
    f_ca_kraus = list(k_live.reshape(live.size, m, d_a).transpose(1, 0, 2))
    return _Built(u_recovery, c_dec, f_ca_kraus, d_blocks, ortho_resid, q, kw)


def construct_recovery(ch: KrausChannel, dec: SubsystemDecomposition,
                       cert: CorrectabilityCertificate,
                       tol: float = DEFAULT_TOL) -> RecoveryResult:
    """Build the recovery unitary from a passing correctability certificate.

    Raises
    ------
    CertificateMismatch
        If the certificate did not come from (ch, dec), did not pass, or
        its block matrix has an eigenvalue below -tol, or no eigenvalue
        above the cut-off (the channel vanishes on the code, so the output
        subsystem C would be empty).
    NumericalDegeneracy
        If the ranges of the modified Kraus operators fail to be
        orthogonal beyond ``acceptance_tol(tol, lambda_max)``, by the
        exact Gram gate, or their normalized images on the code do not
        complete to a unitary; either indicates a certificate accepted at
        too loose a tolerance.
    """
    built = _build_recovery(ch, dec, cert, tol)
    d_a, d_b = dec.d_a, dec.d_b

    # 3. the modified family reproduces the channel on the I_A slice,
    # G(k) G(l)^dag = E(k) E(l)^dag: the mismatch E(k) (q q^dag - I) E(l)^dag
    # has norm at most ||q q^dag - I||_F max_k ||E(k)||_F^2, where ||E(k)||_F^2
    # sums the squared columns E_a W(|i> (x) |k>) over (a, i)
    q = built.q
    flat = built.kw.view(float)
    col_sq = np.einsum("adx,adx->x", flat, flat).reshape(d_a, d_b, 2).sum(axis=(0, 2))
    c = float(np.max(col_sq))
    eta_out = frobenius(q @ dagger(q) - np.eye(len(q)))
    g_action_resid = eta_out * c

    # 5. U ∘ E ∘ P_AB = F_{C|A} (x) id_B on the C frame: the product-form
    # bound, with the closed form, when it is within strict_tol(tol), else the
    # exact certificate with F_{C|A} extracted from the identity-B slice
    residual, superop = _certify_on_code(built.u_recovery @ built.kw, d_a, built.c_subsystem,
                                         tol)

    return RecoveryResult(
        u_recovery=built.u_recovery, c_subsystem=built.c_subsystem,
        f_ca_kraus=built.f_ca_kraus, f_ca_superop=superop, d_blocks=built.d_blocks,
        residual=residual, g_action_residual=g_action_resid,
        orthogonality_residual=built.orthogonality_residual)


def recovery_to_correction(res, dec: SubsystemDecomposition,
                           tol: float = DEFAULT_TOL) -> KrausChannel:
    """Upgrade a recovery into a correction channel R with R ∘ E ∘ P_AB = F_A (x) id_B.

    Composes the recovery unitary with a channel R' that moves every
    state of the output subsystem C back onto A: orthonormal bases are
    paired index by index, in groups of at most d_A when dim C exceeds
    d_A ("cooling"), and the ambient complement of the C (x) B subspace
    is sent to a fixed code state so the result is trace preserving.
    When dim C = d_A the pairing completes to a unitary, so the whole
    correction is a unitary channel.  The C frame of a
    :func:`construct_recovery` result is the first dim C d_B standard
    basis vectors, which ``complete_isometry`` completes to I bit for bit,
    so that QR and its unitarity check are skipped: only W is completed
    (and, when cooling, nothing).  Any other frame is completed.  The
    assembled correction is trace preserving within
    ``acceptance_tol(tol, sqrt(d))``, or
    :class:`~subrec.errors.NotTracePreserving` is raised; it is returned
    with ``tol = acceptance_tol(tol)``, so its own ``is_trace_preserving``
    applies that same threshold.  Only ``res.u_recovery`` and
    ``res.c_subsystem`` are read.
    """
    w, w_c = dec.w, res.c_subsystem.w
    d, n_cb = w_c.shape
    coordinate = np.array_equal(w_c, np.eye(d, n_cb))
    u_c_dag = np.eye(d, dtype=complex) if coordinate else dagger(complete_isometry(w_c, tol))
    if res.c_subsystem.d_a == dec.d_a:
        u_w = complete_isometry(w, tol)
        kraus = [u_w if coordinate else u_w @ u_c_dag]
    else:
        # group g sends C indices g d_A, ..., g d_A + d_A - 1 (their d_B columns
        # each) onto the first columns of W; the complement of C (x) B goes to w_0
        n = dec.d_a * dec.d_b
        kraus = [w[:, :block.shape[1]] @ dagger(block)
                 for block in (w_c[:, s:s + n] for s in range(0, n_cb, n))]
        kraus += [np.outer(w[:, 0], q) for q in u_c_dag[n_cb:]]
    ops = np.empty((len(kraus), d, d), dtype=complex)
    for op, k in zip(ops, kraus):
        np.matmul(k, res.u_recovery, out=op)
    return _checked_correction(ops, tol)


def _checked_correction(kraus: np.ndarray, tol: float) -> KrausChannel:
    """The correction channel with the m x d x d stack ``kraus``, judged, and
    returned, at the acceptance tolerance, so the channel's own
    ``is_trace_preserving`` agrees with this check; NotTracePreserving if
    it fails."""
    correction = KrausChannel(kraus, require_tp=False, tol=acceptance_tol(tol))
    if not correction.is_trace_preserving:
        raise NotTracePreserving(
            f"assembled correction: sum R_a^dag R_a differs from identity by "
            f"{correction.tp_defect:.3e}")
    return correction


def verify_correction(ch: KrausChannel, dec: SubsystemDecomposition,
                      correction: KrausChannel, tol: float = DEFAULT_TOL):
    """Residual of R ∘ E ∘ P_AB = F_A (x) id_B on a complete operator basis.

    Returns ``(residual, f_a_superop)``.  The composed operators R_r E_a W
    are first judged by their product form: each is W (k_c (x) I_B) up to a
    remainder, and the bound that remainder gives on the exact residual
    (``subsystem._product_form_bound``) is the reported residual whenever it
    is within ``strict_tol(tol)``, with the closed-form F_A, X -> sum_c k_c X
    k_c^dag, within it of the extracted map.  Otherwise, a NaN bound
    included, ``certify_code_map`` runs and its exact residual and the F_A it
    extracts from the identity-B slice are reported, bit for bit.  So a
    verdict at any threshold down to ``strict_tol(tol)`` is the exact one.
    """
    return _verify_on(np.asarray(ch.kraus) @ dec.w, dec, correction, tol)


def _verify_on(kw: np.ndarray, dec: SubsystemDecomposition, correction: KrausChannel,
               tol: float):
    """:func:`verify_correction` on the stack E_a W ``kw``, wherever it was formed."""
    ops = np.asarray(correction.kraus)[:, None] @ kw[None]
    return _certify_on_code(ops.reshape(-1, *ops.shape[2:]), dec.d_a, dec, tol)
