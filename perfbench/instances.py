"""The benchmark's workloads: which instances each one runs, and the
reference values every operation is gated on.

Each workload is one closed loop: a single caller runs its instances back to
back, one operation per instance.  The reference values are mathematical
invariants of the algebras (dimension formulas, radical dimension, Wedderburn
block sizes, classification counts) or canonical outputs (the sha256 of the
canonical dump, of the irreducible word list) recorded from this code base.
Canonical outputs must stay byte-identical under any correct change, so a
digest mismatch is a failed operation, never a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Callable, Optional, Tuple

from cycbmw import GF, QQ, Field, ParameterSet
from cycbmw.acceptance import generic_parameters, semi_parameters


# The dimension formulas are written out here rather than taken from
# cycbmw.presentation, so the gate does not trust the code it checks.
def double_factorial_odd(n: int) -> int:
    return prod(range(1, 2 * n, 2))


def bmw_dim(r: int, n: int) -> int:
    """Admissible rank r^n (2n-1)!!."""
    return r**n * double_factorial_odd(n)


def hecke_dim(r: int, n: int) -> int:
    """Cyclotomic Hecke (Ariki-Koike) rank r^n n!."""
    return r**n * factorial(n)


def generic_over(field: Field, r: int) -> ParameterSet:
    """The acceptance suite's generic recipe (q = 2, u_i = q^(2 + 8i)) over
    another field, so a large prime keeps the same presentation."""
    q = field(2)
    u = [(q * q) ** (1 + 4 * i) for i in range(r)]
    alpha = field(1) if r % 2 else q.inv()
    rho = (alpha * prod(u, start=field(1))).inv()
    return ParameterSet(field, q, rho, u, admissible=True)


def rational(u) -> ParameterSet:
    """Admissible Q parameters with q = 2 and rho = (alpha prod u)^-1."""
    q = QQ(2)
    us = [QQ(Fraction(x)) for x in u]
    alpha = QQ(1) if len(us) % 2 else q.inv()
    rho = (alpha * prod(us, start=QQ(1))).inv()
    return ParameterSet(QQ, q, rho, us, admissible=True)


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    params: Callable[[], ParameterSet]
    dim: int
    variant: str = "bmw"
    # sha256 of the canonical dump (for the `complete` workload: of the basis
    # word list)
    digest: Optional[str] = None
    radical_dim: Optional[int] = None
    blocks: Optional[Tuple[int, ...]] = None      # matrix sizes, descending
    classify_count: Optional[int] = None
    # False where classify_cyclotomic is known not to count the blocks
    classify_is_blocks: bool = True


# GF(101) instances with the acceptance suite's parameters (q = 2).
B13 = Instance("gf101_b13", 3, lambda: generic_parameters(1), bmw_dim(1, 3),
               digest="6b327eec3f962c42928b368cd2bfcd0225918e585448d0f4b93ac93dec034fed")
B22 = Instance("gf101_b22", 2, lambda: generic_parameters(2), bmw_dim(2, 2),
               digest="c74619c0f02652c34de3e25ad0ffe032e3837578f0ee1e5379ab613aba528562")
B32 = Instance("gf101_b32", 2, lambda: generic_parameters(3), bmw_dim(3, 2),
               digest="229abf94fbbd28b6ba25c5435a12fd815caf1ef23c87437296c79aa09c38517b",
               radical_dim=0, blocks=(3, 2, 2, 2, 1, 1, 1, 1, 1, 1), classify_count=10)
B14 = Instance("gf101_b14", 4, lambda: generic_parameters(1), bmw_dim(1, 4),
               digest="a3c59d09b082d4c175fe108e0df8fe0ccc51f2edd4ab27b363eea25cbb71727c",
               radical_dim=0, blocks=(6, 6, 3, 3, 3, 2, 1, 1), classify_count=8)
# The semi-admissible collapse d^n (2n-1)!! + r^n n! - d^n n! at (r, d) = (2, 1).
# Its 9 blocks satisfy sum d^2 = 57 - 18, but classify_cyclotomic lists 10
# index pairs because it ignores d; the gate uses the recorded blocks.
SEMI23 = Instance("gf101_semi_b23", 3, semi_parameters, 15 + 48 - 6,
                  digest="c5ac614b51dbdaa13a4803acddcf48e43548dc005c6a3a036fb1621e12c11155",
                  radical_dim=18, blocks=(3, 3, 3, 2, 2, 1, 1, 1, 1), classify_count=10,
                  classify_is_blocks=False)
AK23 = Instance("gf101_ak_b23", 3, lambda: generic_parameters(2), hecke_dim(2, 3),
                variant="ariki_koike",
                digest="d2164e09e123ec11caeb08b34368821deafb26ea8e30573cc340f2554151a8be",
                radical_dim=0, blocks=(3, 3, 3, 3, 2, 2, 1, 1, 1, 1), classify_count=10)
AK14 = Instance("gf101_ak_b14", 4, lambda: generic_parameters(1), hecke_dim(1, 4),
                variant="ariki_koike",
                digest="3ef08a1048b124300221210f637ff72be4441669c9267b2f22b92554a2ff42a2")
# The frontier: completion of B(3,3) finishes; its product table does not yet.
B33 = Instance("gf101_b33", 3, lambda: generic_parameters(3), bmw_dim(3, 3),
               digest="5021390e0e0b7b78bb5ed839de6ab59ced22217ef51ec5a0806ad9a553fb4d76")

# Off the int64 paths: Fraction and big-int scalars.  2^31 - 1 lies between
# the p < 2^15 structure-tensor limit and the p < 2^31 numpy limit.
Q32 = Instance("q_b32", 2, lambda: rational((1, 4, Fraction(1, 4))), bmw_dim(3, 2),
               digest="2160f8be1cd8db98466d7f2e0fd7c266445f05fbef912779d54d3589a400fd00",
               radical_dim=16, blocks=(2, 1, 1, 1, 1, 1, 1, 1), classify_count=8)
Q13 = Instance("q_b13", 3, lambda: rational((1,)), bmw_dim(1, 3),
               digest="795b1f079d3de6f30a28a02930b4be7cf71d8f5d712cbfbab5a3463bf036fdd7",
               radical_dim=8, blocks=(2, 1, 1, 1), classify_count=4)
P61_32 = Instance("gf2p61_b32", 2, lambda: generic_over(GF(2**61 - 1), 3), bmw_dim(3, 2),
                  digest="d71a2616c90c4f73027dfbe5ec70b24ba0678ab7c43d88b84bac4f8e5a6c78fe",
                  radical_dim=0, blocks=(3, 2, 2, 2, 1, 1, 1, 1, 1, 1), classify_count=10)
P31_32 = Instance("gf2p31_b32", 2, lambda: generic_over(GF(2**31 - 1), 3), bmw_dim(3, 2),
                  digest="47468908723cab0dda4cc2d6ac4dc37bb7bc8f4378388d3f2b1fc7e25782c11a",
                  radical_dim=0, blocks=(3, 2, 2, 2, 1, 1, 1, 1, 1, 1), classify_count=10)

# Four workloads, each a closed loop with one caller.  Each bypasses what
# another exercises, so a change to one layer should move one of them and
# leave the others as they were.
WORKLOADS = {
    # GF(101) construction ladder: completion, word enumeration, product-table
    # reduction and the canonical dump; no structure analysis
    "build": (B13, B22, B32, B14, SEMI23, AK23, AK14),
    # the frontier: the B(3,3) completion and its basis, no product table
    "complete": (B33,),
    # `cycbmw analyze` on GF(101) dumps made in set-up: radical, Wedderburn
    # blocks, classification on the int64 paths; no rewriting
    "analyze": (B14, SEMI23, AK23, B32),
    # the whole pipeline over Q and large primes, off the int64 paths:
    # Fraction and big-int scalars, simple modules built too
    "fields_wide": (Q32, Q13, P61_32, P31_32),
}
