"""Block structure of an operator algebra, recovered from a scrambled basis.

Build the algebra M_3 (x) I_2 ⊕ M_1 (x) I_4 ⊕ M_2 hidden behind a random
basis change, then recover the block pattern and the basis-change
unitary with the structure probe.  The same machinery, applied to the
fixed-point set of a unital channel, enumerates its noiseless
subsystems.
"""

import numpy as np

from subrec import algebra_structure
from subrec.linalg import dagger
from subrec.random_ops import haar_unitary

pattern = [(3, 2), (1, 4), (2, 1)]
dim = sum(m * n for m, n in pattern)
basis = []
offset = 0
for m, n in pattern:
    for i in range(m):
        for j in range(m):
            x = np.zeros((dim, dim), dtype=complex)
            unit = np.zeros((m, m))
            unit[i, j] = 1.0
            x[offset:offset + m * n, offset:offset + m * n] = np.kron(unit, np.eye(n))
            basis.append(x)
    offset += m * n

scramble = haar_unitary(dim, seed=99)
hidden = [scramble @ x @ dagger(scramble) for x in basis]
print(f"hidden algebra on dim {dim}: true pattern {pattern}, "
      f"{len(hidden)} basis elements")

structure = algebra_structure(hidden, seed=0)
print(f"recovered blocks (m_k, n_k): {structure.blocks}")
if sorted(structure.blocks) != sorted(pattern):
    raise SystemExit(f"recovered blocks {sorted(structure.blocks)} differ from the "
                     f"planted pattern {sorted(pattern)}")
print(f"pattern residual: {structure.residual:.2e} "
      f"(probing seed used: {structure.seed_used})")

# sanity: the recovered basis change really un-scrambles every element
worst = 0.0
for x in hidden:
    t = dagger(structure.q) @ x @ structure.q
    off_diag = t.copy()
    for (m, n), off in zip(structure.blocks, structure.offsets):
        off_diag[off:off + m * n, off:off + m * n] = 0.0
    worst = max(worst, np.linalg.norm(off_diag))
print(f"worst inter-block leakage after the basis change: {worst:.2e}")

# the commutant of a single generic unitary is abelian: classical only.  u
# generates span{I, u, u^2, u^3}, closed under adjoints since u^dag is a
# polynomial in u; that algebra's blocks (m_k, n_k), swapped, are its
# commutant's, of dimension the sum of n_k^2
u = haar_unitary(4, seed=5)
generated = algebra_structure([np.linalg.matrix_power(u, k) for k in range(4)], seed=0)
swapped = [(n, m) for m, n in generated.blocks]
print(f"\ncommutant of one generic unitary on dim 4: blocks {swapped}, "
      f"{sum(size * size for size, _ in swapped)} dimensions (diagonal algebra)")
