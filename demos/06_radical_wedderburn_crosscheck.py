"""Cross-validating the index sets against the algebras themselves.

For every constructed instance the number of Wedderburn blocks of A/rad
(over a splitting prime field) must equal the number of Kleshchev index
pairs.  This holds with a zero radical at well-separated multicharges and
keeps holding, nontrivially, when the charges collide and the algebra
stops being semisimple.
"""

import time

from cycbmw import (GF, Multicharge, ParameterSet, admissible_rho, build_algebra,
                    classify_cyclotomic, radical, wedderburn)

F = GF(101)
q = F(2)


def params(r, sep):
    u = [(q * q) ** (1 + sep * i) for i in range(r)]
    return ParameterSet(F, q, admissible_rho(q, u), u, admissible=True)


for sep, label in ((4, "well-separated charges"), (1, "adjacent charges")):
    p = params(2, sep)
    A = build_algebra(2, p)
    t = time.time()
    rep = wedderburn(A, radical(A))
    cls = classify_cyclotomic(p, Multicharge.from_parameters(p), 2)
    print(f"B_{{2,2}} with {label}:")
    print(f"  radical dim {rep.radical_dim}, blocks {rep.block_dims_sorted()}, "
          f"split {rep.split}")
    print(f"  index pairs {len(cls)}  ->  match: "
          f"{rep.split and len(rep.blocks) == len(cls)}  ({time.time()-t:.2f}s)")
