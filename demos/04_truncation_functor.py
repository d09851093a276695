"""The idempotent truncation M -> M e, lowering n by 2.

The scaled contraction e = omega_0^{-1} e_{n-1} (or rho e_{n-1} g_{n-2}
when omega_0 vanishes) is an idempotent whose corner e A e is the same
algebra two strands down.  On simple modules the truncation kills exactly
the top layer (f = 0) of the index set and sends the rest down one step.
"""

import numpy as np

from cycbmw import (GF, ParameterSet, build_algebra, corner_algebra,
                    functor_grading_check, radical, simple_modules,
                    truncation_idempotent, wedderburn)

F = GF(101)
q = F(2)
u1 = (q * q) ** 1
p = ParameterSet(F, q, u1.inv(), [u1], admissible=True)

A = build_algebra(3, p)
e = truncation_idempotent(A, p)
print("e supported on:", [A.labels[i] for i in np.flatnonzero(e)], "with e^2 = e")

C = corner_algebra(A, e)
print("corner dim:", C.dim, "= dim of the n-2 algebra"
      " (n=1 is the rank-r algebra of the cyclotomic polynomial)")

rep = wedderburn(A, radical(A))
print("blocks of B_{1,3}:", rep.block_dims_sorted())
fr = functor_grading_check(C, simple_modules(A, rep), e)
print(f"truncation kills {fr.annihilated} simples (the f = 0 layer)"
      f" and leaves {fr.surviving} survivor(s): {fr.survivors}")

# the omega_0 = 0 branch needs the curled idempotent rho e_2 g_1
q0 = F(16)
p0 = ParameterSet(F, q0, q0, [q0.inv()], admissible=True)
A0 = build_algebra(3, p0)
e0 = truncation_idempotent(A0, p0)
print("\nomega_0 = 0 branch: e supported on",
      [A0.labels[i] for i in np.flatnonzero(e0)], "- still idempotent,",
      "corner dim", corner_algebra(A0, e0).dim)
