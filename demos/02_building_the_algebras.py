"""Building the finite-dimensional quotients by rewriting completion.

The defining relations are oriented into a rewriting system and completed
until every overlap resolves; the irreducible words then form an exact
basis.  For admissible parameters the dimension must be r^n (2n-1)!!, and
the cyclotomic Hecke quotient (every e_i killed) has dimension r^n n!.
"""

import time

from cycbmw import GF, ParameterSet, admissible_rho, build_algebra

F = GF(101)
q = F(2)


def generic(r):
    u = [(q * q) ** (1 + 4 * i) for i in range(r)]
    return ParameterSet(F, q, admissible_rho(q, u), u, admissible=True)


print(f"{'algebra':>10} {'dim':>5} {'expected':>9} {'rules':>6} {'time':>7}")
for r, n in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]:
    t = time.time()
    A = build_algebra(n, generic(r))
    print(f"  B_{{{r},{n}}} {A.dim:>7} {A.meta['expected_dimension']:>9} "
          f"{A.meta['completion']['rules_added']:>6} {time.time()-t:>6.2f}s")

print()
print("the n = 2, r = 1 basis:", build_algebra(2, generic(1)).labels)

print()
print("cyclotomic Hecke quotients (e_i -> 0):")
for r, n in [(1, 3), (2, 2), (2, 3)]:
    A = build_algebra(n, generic(r), variant="ariki_koike")
    print(f"  H_{{{r},{n}}}: dim {A.dim} = {r}^{n} * {n}!")
