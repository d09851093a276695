"""Structure analysis of the constructed algebras.

Jacobson radical (the trace-form kernel, refined in characteristic p by
one linear system per p-power round, every form one scatter over the
constants, `StructureAlgebra.form`; certified nilpotent with matrix
products, each squaring round one stack of current @ R_b reduced by one
batched echelon, on every field), Wedderburn block data of the semisimple quotient through its
center, explicit simple right modules via primitive idempotents, and the
idempotent-truncation functor M -> M e.  The central idempotents are
split inside the center algebra Z, not inside the quotient: dim Z is the
sum of the blocks' center degrees.  Z is commutative, so eps z eps =
eps z, and the split stops once it holds dim Z idempotents.  A central
idempotent eps has eps b_i eps = b_i eps, so the sandwich L_eps R_eps
that spans the block eps S eps is R_eps itself; the certificate
eps^2 = eps is read from the same matrix.

Idempotents are cut by one step, `_split(S, w, e)`, along the coprime
primary factors of the minimal polynomial of w in e S e (the finite-field
splitting of Ronyai 1990): all parts refine the central idempotents, the
first refines a block's idempotent towards a primitive one.  The minimal
polynomial is factored here, on lists of Python ints or Fractions: over
GF(p) by distinct-degree factorization, each factor divided out as often
as it divides, and Cantor-Zassenhaus equal-degree splitting; over Q by
Zassenhaus's algorithm, its squarefree part factored modulo a small
prime, Hensel-lifted and recombined by trial division.  The factors are
sorted by the key of sympy's `_sort_factors`, which fixes the order of
the idempotents.  The semisimple quotient is built, like corners and the
center algebra, from right multiplication matrices, one table column per
matrix.

Every module is a `ModuleRep`: a row basis in the quotient's coordinates.
The truncation M e (the Schur functor to the corner e A e, Green 1980,
Sec. 6) is one too, over the same quotient; the corner acts on it through
the corner's rows in A, so one action routine serves both.

Row sets (radical and center bases, corners, module rows, action matrices)
are 2-D arrays in the field's dtype, of shape (rows, columns) also when
empty; elements (idempotents, units, generators) are vectors in that dtype.

All linear algebra is exact; random choices (only used to hunt splitting
elements inside a block) are driven by an explicit seed and the
deterministic sweeps run first.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import numpy as np

from .fields import GF, QQ, Field, PRIME_FIELD, isprime
from .linalg import (EchelonSpan, RowBasis, as_array, dtype_for, echelon, matmul_mod,
                     nullspace, rank_profile, reduce_mod, zeros)
from .presentation import StructureAlgebra, ideal_span

DEFAULT_SEED = 20260801
_SPLIT_TRIES = 60     # seeded random corner elements per primitive-idempotent round


class AnalysisError(RuntimeError):
    """Internal consistency failure; raised rather than reporting bad data."""


def _power_trace_mod(M: np.ndarray, power: int, mod: int) -> int:
    """tr(M^power) mod `mod` for power >= 1, by binary powering over Z/mod."""
    acc = None
    while power:
        if power & 1:
            acc = M if acc is None else matmul_mod(acc, M, mod)
        power >>= 1
        if power:
            M = matmul_mod(M, M, mod)
    return int(np.trace(acc)) % mod


def radical(A: StructureAlgebra) -> np.ndarray:
    """Exact basis of the Jacobson radical, as the rows of a 2-D array.

    I_0, the nullspace of `A.form(A.traces())`, is the radical in
    characteristic 0.  In characteristic p, round i (N = p^i <= dim) cuts
    I_i = {x in I_{i-1} : g_i(xy) = 0 for all y in A}, where g_i(x) =
    p^{-i} tr(X^N) mod p for an integer lift X of R_x (p^i | tr(X^N) is
    checked); the last is the radical (Ronyai 1990; Cohen, Ivanyos & Wales
    1997).  By induction I_{i-1} is an ideal, and:
    (a) tr(X^N) mod p^{i+1} depends only on X mod p.  In (X + pE)^N, a word
    with k factors pE fixed by p^s rotations has k >= p^s >= s + 1, and its
    orbit sums p^{i-s} equal traces.  A basis change invertible mod p is so
    mod p^{i+1}, keeping traces.  So XY lifts R_{xy}; g_i(xy) = g_i(yx).
    (b) g_i is linear on I_{i-1}.  In (X + Y)^N, a mixed word fixed by p^s
    rotations (s < i) is W^{p^s}, W a lift of a w in I_{i-1}, inside I_s;
    g_s(w 1) = 0 gives p^{s+1} | tr(W^{p^s}), and its orbit sums p^{i-s}
    such traces.  And g_i(cx) = c^N g_i(x) = c g_i(x).  I_i is an ideal:
    g_i(xa y) = g_i(x ay) and g_i(ax y) = g_i(x ya) by (a).
    (c) Let Y be the echelon rows of I_{i-1}, with pivots P.  In a basis
    extending Y, R_y for y in I_{i-1} is block triangular with diagonal
    blocks T_y = (Y @ R_y)[:, P] and 0, as A y lies in I_{i-1}: by (a),
    g_i(y) is read from T_y.  The vector g, g_i(Y_r) at column P_r and 0
    elsewhere, is g_i on I_{i-1}, which holds every x b_j: I_i is {c B :
    (B @ A.form(g))^T c = 0}, B the previous round's rows.  The result
    is certified to be a nilpotent two-sided ideal.
    """
    f = A.field
    basis = nullspace(A.form(A.traces()), A.dim, f)
    if f.kind == PRIME_FIELD:
        p = f.p
        i = 1
        while p**i <= A.dim and len(basis):
            mod = p ** (i + 1)
            Y, P = echelon(basis, p)
            g = zeros(A.dim, p)
            for y, col in zip(Y, P):
                T = matmul_mod(Y, A.right_matrix(y), p)[:, P]
                tr = _power_trace_mod(T.astype(dtype_for(mod)), p**i, mod)
                if tr % (p**i):
                    raise AnalysisError("p-power trace not divisible as expected")
                g[col] = (tr // p**i) % p
            coords = nullspace(matmul_mod(basis, A.form(g), p).T, len(basis), f)
            basis = matmul_mod(coords, basis, p)
            i += 1
    _certify_nilpotent_ideal(A, basis)
    return basis


def _certify_nilpotent_ideal(A: StructureAlgebra, basis: np.ndarray):
    """Refuse `basis` unless it spans a nilpotent two-sided ideal I: the
    ideal it generates has dimension len(basis), and the dimensions of I,
    I^2, (I^2)^2, ... fall strictly to 0.  Each square J^2 is the row span
    of the stacked products J @ R_b, one right multiplication matrix per
    echelon row b of J, reduced by one batched echelon."""
    f, m = A.field, A.field.p
    ideal = ideal_span(A, basis)
    if ideal.dim != len(basis):
        raise AnalysisError("radical candidate is not an ideal")
    current = ideal.rows
    while len(current):
        square = EchelonSpan(f, A.dim, np.vstack(
            [matmul_mod(current, A.right_matrix(b), m) for b in current])).rows
        if len(square) >= len(current):
            raise AnalysisError("radical candidate is not nilpotent")
        current = square


# -- semisimple quotient ---------------------------------------------------------

@dataclass
class QuotientData:
    """A/rad as a table algebra plus the projection map to arrays in S; S's
    basis element t is the image of A's basis element complement[t]."""
    S: StructureAlgebra
    proj: Callable[[object], np.ndarray]
    complement: List[int]


def semisimple_quotient(A: StructureAlgebra, rad_rows: np.ndarray) -> QuotientData:
    f = A.field
    if not len(rad_rows):
        return QuotientData(A, A.dense, list(range(A.dim)))
    span = EchelonSpan(f, A.dim, rad_rows)
    complement = sorted(set(range(A.dim)) - set(span.pivots))

    def project(v) -> np.ndarray:
        # the residual is zero at the radical's pivots: compute the rest
        return span.residual(A.dense(v), complement)

    # column b: row i = complement[a] of R_{b_j}, j = complement[b], is b_i b_j
    columns = [project(A.right_matrix({j: f.one()})[complement]) for j in complement]
    gens = {name: project(g) for name, g in A.gens.items()}
    S = StructureAlgebra.from_columns(f, columns, project(A.unit()),
                                      [A.labels[j] for j in complement], gens, None)
    return QuotientData(S, project, complement)


# -- center and central idempotents -------------------------------------------------

def center(S: StructureAlgebra) -> np.ndarray:
    """Basis of the center, as the rows of a 2-D array, solved against the generators
    (or against every basis element when no generator set is known)."""
    f = S.field
    # z g - g z = 0: column j of R_g - L_g is the equation for coordinate j
    equations = np.vstack([reduce_mod(S.right_matrix(g) - S.left_matrix(g), f.p).T
                           for g in S.multipliers()])
    return nullspace(equations, S.dim, f)


# -- polynomials: ascending lists of raw values without trailing zeros ----------
# (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 3 and 14)

def _inverse(c, f: Field):
    return pow(c, -1, f.p) if f.p else 1 / c


def _poly_reduce(a, f: Field):
    """a with its coefficients reduced (over GF(p)) and trailing zeros dropped."""
    if f.p:
        a = [c % f.p for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _poly_sub(a, b, f: Field):
    n = max(len(a), len(b))
    return _poly_reduce([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                         for i in range(n)], f)


def _poly_product(a, b):
    """a b with its coefficients left unreduced."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(a, b, f: Field):
    """(quotient, remainder) of a, its coefficients maybe unreduced, by b != 0."""
    db, p = len(b) - 1, f.p
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    inv = _inverse(b[-1], f)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv
        c = q[k] = c % p if p else c
        for j in range(db):
            r[k + j] -= c * b[j]
    return _poly_reduce(q, f), _poly_reduce(r[:db], f)


def _poly_mod(a, b, f: Field):
    return _poly_divmod(a, b, f)[1]


def _poly_gcd(a, b, f: Field):
    """The monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _poly_mod(a, b, f)
    inv = _inverse(a[-1], f)
    return _poly_reduce([c * inv for c in a], f)


def _poly_invmod(a, m, f: Field):
    """a^-1 mod m for a coprime to m: the extended Euclidean algorithm keeps
    r_i = s_i a mod m, and its last nonzero r_i is a constant."""
    r0, r1, s0, s1 = m, _poly_mod(a, m, f), [], [f.one()]
    while r1:
        q, r = _poly_divmod(r0, r1, f)
        r0, r1, s0, s1 = r1, r, s1, _poly_sub(s0, _poly_product(q, s1), f)
    inv = _inverse(r0[0], f)
    return _poly_reduce([c * inv for c in s0], f)


def _poly_powmod(a, e: int, m, f: Field):
    """a^e mod m, by left-to-right binary powering (cheap for a linear a)."""
    out = [f.one()]
    for bit in bin(e)[2:]:
        out = _poly_mod(_poly_product(out, out), m, f)
        if bit == "1":
            out = _poly_mod(_poly_product(out, a), m, f)
    return out


def _poly_derivative(a, f: Field):
    return _poly_reduce([i * c for i, c in enumerate(a)][1:], f)


def _divide_out(g, e, f: Field):
    """(k, g / e^k) for the largest k with e^k | g."""
    k, (q, r) = 0, _poly_divmod(g, e, f)
    while not r:
        k, g = k + 1, q
        q, r = _poly_divmod(g, e, f)
    return k, g


def _gfp_equal_degree(s, d: int, f: Field, rng: random.Random):
    """The factors of the monic squarefree s, all irreducible of degree d
    (Cantor & Zassenhaus 1981): gcd(s, a^((p^d-1)/2) - 1), for p = 2
    gcd(s, a + a^2 + ... + a^(2^(d-1))), for random a; x + c suffices for
    linear factors and is cheap to power."""
    n, p = len(s) - 1, f.p
    if n == d:
        return [s]
    while True:
        a = _poly_reduce([rng.randrange(p), 1] if d == 1 else
                         [rng.randrange(p) for _ in range(n)], f)
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = _poly_mod(_poly_product(t, t), s, f)
                b = _poly_sub(b, t, f)           # subtracting is adding over GF(2)
        else:
            b = _poly_sub(_poly_powmod(a, (p**d - 1) // 2, s, f), [1], f)
        part = _poly_gcd(s, b, f)
        if 1 < len(part) <= n:
            return (_gfp_equal_degree(part, d, f, rng)
                    + _gfp_equal_degree(_poly_divmod(s, part, f)[0], d, f, rng))


def _gfp_factors(g, f: Field):
    """(irreducible monic factor, multiplicity) pairs of the monic g over
    GF(p), sorted by the key of sympy's `_sort_factors`.  Round d takes the
    factors of degree d from gcd(g, x^(p^d) - x), which is squarefree, and
    divides them out of g as often as they divide it; once deg g < 2(d + 1)
    what is left is irreducible.  The seeded random choices of the split
    change only the time: the factorization is unique."""
    rng = random.Random(DEFAULT_SEED)
    x, h, d, out = [0, 1], [0, 1], 0, []
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _poly_powmod(h, f.p, g, f)
        part = _poly_gcd(g, _poly_sub(h, x, f), f)
        if len(part) > 1:
            for e in _gfp_equal_degree(part, d, f, rng):
                k, g = _divide_out(g, e, f)
                out.append((e, k))
            h = _poly_mod(h, g, f)
    if len(g) > 1:
        out.append((g, 1))
    return sorted(out, key=lambda t: (len(t[0]), t[1], t[0][::-1]))


def _q_factors(mp):
    """(irreducible factor, multiplicity) pairs of the monic mp over Q, each
    factor primitive over Z with a positive leading coefficient (as
    Fractions), sorted by the key of sympy's `_sort_factors` over QQ: the
    factors of the squarefree part mp / gcd(mp, mp'), each divided out of
    mp as often as it divides it."""
    sqf = _poly_divmod(mp, _poly_gcd(mp, _poly_derivative(mp, QQ), QQ), QQ)[0]
    den = math.lcm(*(c.denominator for c in sqf))
    g = [int(c * den) for c in sqf]
    content = math.gcd(*g)
    out = []
    for h in _zassenhaus([c // content for c in g]):
        k, mp = _divide_out(mp, h, QQ)
        out.append((h, k))
    return sorted(out, key=lambda t: (len(t[0]), t[1], t[0][::-1]))


def _zassenhaus(g):
    """The irreducible factors over Z of the primitive squarefree g of degree
    n, with lc(g) > 0, as primitive Fraction lists with positive leading
    coefficients (Zassenhaus 1969; von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 15).  The monic factors of g modulo the least odd prime p
    that keeps it squarefree of degree n are lifted mod m = p^l > 2 lc(g) B,
    B = 2^n sqrt(n+1) max|g_i| bounding the coefficients of every factor of
    g (Mignotte).  A factor h of the rest r has (lc(r)/lc(h)) h = lc(r) prod
    S mod m for a subset S of the lifts, with coefficients below m/2: the
    subsets, smallest first, give candidates that trial division tests."""
    n, lc = len(g) - 1, g[-1]
    for p in itertools.count(3, 2):
        if isprime(p) and lc % p:
            F = GF(p)
            gp = _poly_reduce([c * pow(lc, -1, p) for c in g], F)
            if len(_poly_gcd(gp, _poly_derivative(gp, F), F)) == 1:
                break
    lifted, m = _hensel_lift(g, [h for h, _ in _gfp_factors(gp, F)], F,
                             2 * lc * 2**n * (math.isqrt(n + 1) + 1) * max(map(abs, g)))
    factors, rest, s = [], [Fraction(c) for c in g], 1
    while 2 * s <= len(lifted):
        for S in itertools.combinations(range(len(lifted)), s):
            cand = [int(rest[-1])]
            for i in S:
                cand = [c % m for c in _poly_product(cand, lifted[i])]
            cand = [c - m if 2 * c > m else c for c in cand]
            content = math.gcd(*cand)
            cand = [Fraction(c // content) for c in cand]
            q, r = _poly_divmod(rest, cand, QQ)
            if not r:
                factors.append(cand)
                rest, lifted = q, [F_i for i, F_i in enumerate(lifted) if i not in S]
                break
        else:
            s += 1
    return factors + [rest]


def _hensel_lift(g, fs, F: Field, bound):
    """(lifts, m): the monic F_i = f_i mod p with lc(g) prod F_i = g mod m,
    m the least power of p above `bound`, from the monic pairwise coprime
    f_i with lc(g) prod f_i = g mod p.  With a_i = (lc(g) prod_{j != i}
    f_j)^-1 mod f_i, lc(g) sum_i a_i prod_{j != i} f_j = 1 mod p, so adding
    m (e a_i mod f_i) to each F_i, e = (g - lc(g) prod F_i) / m, makes the
    product right mod m p (linear lifting)."""
    p, lc = F.p, g[-1]
    a = []
    for i, f_i in enumerate(fs):
        cof = [lc]
        for j, f_j in enumerate(fs):
            if j != i:
                cof = _poly_mod(_poly_product(cof, f_j), f_i, F)
        a.append(_poly_invmod(cof, f_i, F))
    lifted, m = list(fs), p
    while m <= bound:
        prod = [lc]
        for F_i in lifted:
            prod = _poly_product(prod, F_i)
        e = _poly_reduce([(c - d) // m for c, d in zip(g, prod)], F)
        for i, (a_i, f_i) in enumerate(zip(a, fs)):
            c = _poly_mod(_poly_product(e, a_i), f_i, F)
            lifted[i] = [x + m * y for x, y in zip(lifted[i], c + [0] * len(f_i))]
        m *= p
    return lifted, m


def _coprime_idempotent_polys(mp_coeffs, f: Field):
    """Polynomials h_a with h_a = 1 mod primary factor a, 0 mod the rest,
    as ascending raw coefficients, in the order of the irreducible factors.

    The factors are our own, sorted by the key of sympy's `Poly.factor_list`:
    over GF(p) (`_gfp_factors`) (degree, multiplicity, monic coefficients as
    residues 0..p-1 from the top), over Q (`_q_factors`) (degree,
    multiplicity, primitive integer coefficients from the top, the leading
    one positive).  Each h_a = rest_a (rest_a^-1 mod p_a) mod mp, rest_a the
    product of the other primaries.  Empty list when the minimal polynomial
    is primary (no split there), which a linear one always is."""
    if len(mp_coeffs) <= 2:
        return []
    if f.kind == PRIME_FIELD:
        mp = [int(c) for c in mp_coeffs]
        factors = _gfp_factors(mp, f)
    else:
        mp = list(mp_coeffs)
        factors = _q_factors(mp)
    if len(factors) < 2:
        return []
    out = []
    for g, k in factors:
        pa = _poly_powmod(g, k, mp, f)      # g^k itself, of degree below mp's
        rest = _poly_divmod(mp, pa, f)[0]   # over Q up to a constant, which cancels
        out.append(_poly_mod(_poly_product(rest, _poly_invmod(rest, pa, f)), mp, f))
    return out


def _split(S: StructureAlgebra, w, e) -> List[np.ndarray]:
    """The nonzero parts h(w) of the idempotent e, one per coprime
    idempotent polynomial h of the minimal polynomial of w in the unital
    algebra (e S e, e); [] when that polynomial is primary.

    The powers e w^k are collected until one is dependent on those before;
    its coordinates give the minimal polynomial, and h(w) = h . powers."""
    f = S.field
    m = f.p
    Rw = S.right_matrix(w)
    cur = S.dense(e)
    span = EchelonSpan(f, S.dim, [cur])
    powers = [cur]
    while True:
        cur = matmul_mod(cur, Rw, m)
        if not span.insert(cur):
            break
        powers.append(cur)
    mp = [f.neg(c) for c in RowBasis(powers, f).coords(cur)] + [f.one()]
    P = np.vstack(powers)
    parts = [matmul_mod(as_array(h, m), P[:len(h)], m) for h in _coprime_idempotent_polys(mp, f)]
    return [part for part in parts if part.any()]


def central_primitive_idempotents(S: StructureAlgebra,
                                  center_rows: np.ndarray) -> List[np.ndarray]:
    """Split the commutative semisimple center along minimal polynomials.

    The splitting runs inside the center algebra Z, of dimension
    k = len(center_rows), built by `StructureAlgebra.from_rows`; Z -> S,
    x -> x.center_rows, is an injective algebra map, so minimal
    polynomials and idempotents are those of S.  Round b splits each eps
    along eps z_b (= eps z_b eps, Z being commutative); once there are k
    idempotents each eps Z is 1-dimensional and no later round splits.
    `wedderburn` certifies e^2 = e for each result."""
    f = S.field
    m = f.p
    if not len(center_rows):
        return []
    Z = StructureAlgebra.from_rows(S, center_rows, S.unit())
    idems = [Z.unit()]
    for b in range(Z.dim):
        if len(idems) == Z.dim:
            break
        z = {b: f.one()}
        idems = [part for eps in idems for part in _split(Z, Z.mul(eps, z), eps) or [eps]]
    return [matmul_mod(eps, center_rows, m) for eps in idems]


# -- block data and simple modules ------------------------------------------------

@dataclass
class BlockInfo:
    dim: int                     # F-dimension of the block
    center_degree: int           # [Z(block) : F]
    matrix_size: Optional[int]   # d with block = M_d(D), when determined
    division_dim: Optional[int]  # dim_F D for a primitive idempotent, if found
    idempotent: Optional[np.ndarray] = None   # primitive, in S coords
    split: bool = False


@dataclass
class WedderburnReport:
    dim: int
    radical_dim: int
    blocks: List[int]
    split: bool
    block_info: List[BlockInfo] = dc_field(default_factory=list)
    caveats: List[str] = dc_field(default_factory=list)

    def block_dims_sorted(self) -> List[int]:
        return sorted(self.blocks, reverse=True)

    def to_json(self, classification_count=None, match=None) -> dict:
        return {
            "dim": self.dim,
            "radical_dim": self.radical_dim,
            "blocks": self.block_dims_sorted(),
            "split": self.split,
            "classification_count": classification_count,
            "match": match,
            "caveats": list(self.caveats),
            "block_info": [{"dim": b.dim, "center_degree": b.center_degree,
                            "matrix_size": b.matrix_size, "division_dim": b.division_dim,
                            "split": b.split} for b in self.block_info],
        }


def primitive_idempotent(S: StructureAlgebra, eps: np.ndarray, corner: np.ndarray,
                         seed: int = DEFAULT_SEED) -> Optional[Tuple[np.ndarray, int]]:
    """Refine eps to a primitive idempotent e of eps*S*eps and return
    (e, dim e*S*e); `corner` is a basis of eps*S*eps, the independent
    rows of `S.sandwich(eps)` (of `S.right_matrix(eps)` for a central eps).

    Sweeps the corner basis elements, then seeded random corner elements,
    then the pairwise products of basis elements.  Returns None when
    nothing splits within the budget (reported by callers, never fudged).
    """
    f = S.field
    m = f.p
    rng = random.Random(seed)
    e = eps
    guard = 0
    while guard < 200:
        guard += 1
        if len(corner) == 1:
            return e, len(corner)

        def candidates():
            # basis sweep first (cheap, catches the classical cases), then
            # seeded combinations, then the quadratic product sweep
            yield from corner
            for _ in range(_SPLIT_TRIES):
                cs = [f.of_int(rng.randrange(m)) if f.kind == PRIME_FIELD
                      else f.of_int(rng.randrange(-9, 10)) for _ in corner]
                yield matmul_mod(as_array(cs, m), corner, m)
            for a in corner:
                # row b is a * corner[b]
                yield from matmul_mod(corner, S.left_matrix(a), m)
        for w in candidates():
            if not w.any():
                continue
            parts = _split(S, w, e)
            if parts:
                e = parts[0]
                sandwich = S.sandwich(e)
                corner = sandwich[rank_profile(sandwich, f)]
                break
        else:
            return None
    return None


def wedderburn(A: StructureAlgebra, rad_rows: np.ndarray,
               seed: int = DEFAULT_SEED) -> WedderburnReport:
    """Block dimensions of A/rad via central idempotents, exactly.

    Over GF(p) the split decision is rigorous from the center alone
    (finite division rings are fields); a primitive idempotent per block
    is still computed when possible so simple modules can be materialized.
    Over Q splitness is certified only by an explicit primitive idempotent
    with a 1-dimensional corner; otherwise the report carries a caveat.
    Each block eps*S*eps is spanned by the rows b_i eps of R_eps (eps is
    central), and eps^2 = eps is checked there as eps R_eps = eps.
    """
    f = A.field
    quot = semisimple_quotient(A, rad_rows)
    S = quot.S
    cen = center(S)
    idems = central_primitive_idempotents(S, cen)
    infos = []
    ideals = []      # per block, the span of e*S (None without a primitive e)
    caveats = []
    for eps in idems:
        R = S.right_matrix(eps)   # the sandwich L_eps R_eps, eps being central
        if not np.array_equal(matmul_mod(eps, R, f.p), eps):
            raise AnalysisError("central idempotent candidate fails e^2 = e")
        corner = R[rank_profile(R, f)]
        bdim = len(corner)
        # row t of cen R_eps is z_t eps: the block's center
        kdeg = EchelonSpan(f, S.dim, matmul_mod(cen, R, f.p)).dim
        info = BlockInfo(dim=bdim, center_degree=kdeg, matrix_size=None,
                         division_dim=None)
        found = primitive_idempotent(S, eps, corner, seed=seed)
        ideal = None
        if found is not None:
            e, ddim = found
            # e*S is spanned by the rows e * b_i of L_e
            ideal = EchelonSpan(f, S.dim, S.left_matrix(e))
            rdim = ideal.dim
            info.idempotent = e
            info.division_dim = ddim
            info.matrix_size = rdim // ddim
            if rdim % ddim or info.matrix_size**2 * ddim != bdim:
                raise AnalysisError("block dimensions are inconsistent")
            info.split = (ddim == 1)
        else:
            if f.kind == PRIME_FIELD:
                # D is a finite division ring, hence the field of degree kdeg
                d2 = bdim // kdeg
                d = math.isqrt(d2)
                if d * d * kdeg != bdim:
                    raise AnalysisError("block dimension is not d^2 * k")
                info.matrix_size = d
                info.split = (kdeg == 1)
            else:
                caveats.append(
                    f"block of dim {bdim}: no primitive idempotent found; "
                    "split flag left false")
                info.split = False
        if f.kind == PRIME_FIELD and info.split and info.center_degree != 1:
            raise AnalysisError("split block with nontrivial center degree")
        infos.append(info)
        ideals.append(ideal)
    blocks = [info.matrix_size if info.matrix_size is not None else info.dim
              for info in infos]
    split = all(info.split for info in infos)
    rep = WedderburnReport(dim=A.dim, radical_dim=len(rad_rows), blocks=blocks,
                           split=split, block_info=infos, caveats=caveats)
    if split and sum(d * d for d in rep.blocks) != A.dim - len(rad_rows):
        raise AnalysisError("split block dims do not sum to dim A - dim rad")
    rep._quotient = quot
    rep._right_ideals = ideals
    rep._central_idempotents = idems
    return rep


# -- modules ------------------------------------------------------------------------

class ModuleRep:
    """Right module of A given by a row basis in the coordinates of the
    semisimple quotient S, on which A acts through the projection.

    A simple module e*S and its truncation M e (the Schur functor to the
    corner e A e, which acts through its rows in A) are both of this kind;
    rows of shape (0, S.dim) are the zero module, acting by (0, 0) matrices."""

    def __init__(self, quot: QuotientData, rows: np.ndarray):
        self.quot = quot
        self.field = quot.S.field
        self.rows = rows
        self.dim = len(rows)
        self.basis = RowBasis(rows, self.field)

    def action_matrix(self, a) -> np.ndarray:
        """Matrix of v -> v * a on the row basis, for a in A."""
        Ra = self.quot.S.right_matrix(self.quot.proj(a))
        out = self.basis.coords(matmul_mod(self.rows, Ra, self.field.p))
        if out is None:
            raise AnalysisError("module rows are not invariant")
        return out


def simple_modules(A: StructureAlgebra, report: WedderburnReport) -> List[ModuleRep]:
    """One simple right module per block, as e*(A/rad) for the block's
    primitive idempotent (the span `wedderburn` built for its dimension);
    requires every block to carry one."""
    quot = report._quotient
    out = []
    for info, ideal in zip(report.block_info, report._right_ideals):
        if info.idempotent is None:
            raise AnalysisError(
                "no primitive idempotent available for a block; "
                "simple modules cannot be materialized")
        out.append(ModuleRep(quot, ideal.rows))
    return out


def truncate_module(M: ModuleRep, e_coords_A) -> ModuleRep:
    """The image M e, over the same quotient: the echelon basis of the rows
    (action of e) . M.rows, in S's coordinates."""
    image = matmul_mod(M.action_matrix(e_coords_A), M.rows, M.field.p)
    return ModuleRep(M.quot, EchelonSpan(M.field, M.quot.S.dim, image).rows)


@dataclass
class FunctorReport:
    annihilated: int
    survivors: List[Tuple[int, bool]]    # (dimension of Me, simple over corner?)
    corner_blocks: List[int]

    @property
    def surviving(self) -> int:
        return len(self.survivors)


def functor_grading_check(corner: StructureAlgebra, simples: List[ModuleRep],
                          e_coords: np.ndarray, seed: int = DEFAULT_SEED) -> FunctorReport:
    """Apply M -> M e to every simple and test the image against the
    corner's own block data (central character + dimension)."""
    crep = wedderburn(corner, radical(corner), seed=seed)
    annihilated = 0
    survivors = []
    for M in simples:
        T = truncate_module(M, e_coords)
        if T.dim == 0:
            annihilated += 1
            continue
        survivors.append((T.dim, _corner_module_is_simple(T, corner, crep)))
    return FunctorReport(annihilated=annihilated, survivors=survivors,
                         corner_blocks=crep.block_dims_sorted())


def _corner_module_is_simple(T: ModuleRep, corner: StructureAlgebra,
                             crep: WedderburnReport) -> bool:
    """Simple iff exactly one block acts nonzero and the dimension matches
    that block's matrix size (valid for split blocks).  Each central
    idempotent of the corner's quotient acts through its lift to A: the
    corner rows of the quotient's basis elements."""
    m = T.field.p
    cquot = crep._quotient
    lift = corner.meta["parent_rows"][cquot.complement]
    hits = [info for info, eps in zip(crep.block_info, crep._central_idempotents)
            if T.action_matrix(matmul_mod(eps, lift, m)).any()]
    if len(hits) != 1:
        return False
    info = hits[0]
    return info.split and T.dim == info.matrix_size
