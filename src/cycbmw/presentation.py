"""Cyclotomic BMW algebras as explicit structure-constants algebras.

The defining presentation (generators e_i, g_i, x_1 with the inverse-free
relation set, plus the cyclotomic polynomial in x_1) is oriented into a
rewriting system and completed; the irreducible words then form an exact
basis and products are computed by normal form.  Inverses never appear as
generators: g_i^{-1} expands to g_i - delta + delta*e_i and x_1^{-1} to
the cofactor polynomial of prod (x_1 - u_j).

Generator precedence under the degree-lex order:
e_1 < ... < e_{n-1} < g_1 < ... < g_{n-1} < x_1.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .fields import Field
from .linalg import (EchelonSpan, RowBasis, as_array, fraction_free, from_fraction_free,
                     matmul_mod, reduce_mod, runs, scatter_add, zeros)
from .params import ParameterSet, omega
from .rewriting import Basis, CompletionError, RewriteSystem, complete


class BuildError(ValueError):
    """Invalid build request or a presentation that fails validation."""


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1*3*...*(2n-1)."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def default_degree_cap(n: int, r: int) -> int:
    return 4 * n + 2 * r


# -- generator coding ---------------------------------------------------------

# generator ids are bytes, and the largest, X(n) = 2(n - 1), must be below 256
MAX_N = 256 // 2


def gen_count(n: int) -> int:
    return 1 if n == 1 else 2 * n - 1


def E(i: int, n: int) -> int:
    if not 1 <= i <= n - 1:
        raise BuildError(f"e_{i} is out of range for n = {n}")
    return i - 1


def G(i: int, n: int) -> int:
    if not 1 <= i <= n - 1:
        raise BuildError(f"g_{i} is out of range for n = {n}")
    return (n - 1) + (i - 1)


def X(n: int) -> int:
    return 0 if n == 1 else 2 * (n - 1)


def gen_name(gid: int, n: int) -> str:
    if n == 1:
        return "x1"
    if gid < n - 1:
        return f"e{gid + 1}"
    if gid < 2 * (n - 1):
        return f"g{gid - (n - 1) + 1}"
    return "x1"


def word_str(w: bytes, n: int) -> str:
    if not w:
        return "1"
    return ".".join(gen_name(g, n) for g in w)


def parse_word(s: str, n: int) -> bytes:
    if s == "1":
        return b""
    out = []
    for tok in s.split("."):
        if tok == "x1":
            out.append(X(n))
        elif tok.startswith("e"):
            out.append(E(int(tok[1:]), n))
        elif tok.startswith("g"):
            out.append(G(int(tok[1:]), n))
        else:
            raise BuildError(f"bad generator token {tok!r}")
    return bytes(out)


# -- relations ----------------------------------------------------------------

def _x_power_reduction(p: ParameterSet):
    """x^r = sum_{k<r} (-1)^(r-k-1) sigma_{r-k} x^k as a coefficient list."""
    r = p.r
    coeffs = []
    for k in range(r):
        c = p.sigma[r - k]
        coeffs.append(c if (r - k - 1) % 2 == 0 else -c)
    return coeffs  # index k -> coefficient of x^k


def x_inverse_coeffs(p: ParameterSet):
    """x^{-1} = sum_k c_k x^k with c_k = (-1)^k sigma_{r-1-k} / sigma_r."""
    r = p.r
    sig_r_inv = p.sigma[r].inv()
    out = []
    for k in range(r):
        c = p.sigma[r - 1 - k] * sig_r_inv
        out.append(c if k % 2 == 0 else -c)
    return out


def canonical_relations(n: int, p: ParameterSet, variant: str = "bmw",
                        orientation13: str = "x1") -> List[dict]:
    """The inverse-free defining equations as sparse elements (== 0).

    variant "ariki_koike" adds e_i -> 0, which collapses the quotient onto
    the cyclotomic Hecke algebra.
    """
    if not 1 <= n <= MAX_N:
        raise BuildError(f"n = {n} is outside 1..{MAX_N}, the n whose generator ids are bytes")
    if variant not in ("bmw", "ariki_koike"):
        raise BuildError(f"unknown variant {variant!r}")
    if orientation13 not in ("x1", "x1inv"):
        raise BuildError(f"unknown relation-13 orientation {orientation13!r}")
    f = p.field
    one = f(1)
    eqs: List[dict] = []

    def eq(*terms):
        d = f.lincomb((c.value, {word: 1}) for word, c in terms)
        if d:
            eqs.append(d)

    x = bytes((X(n),))
    # cyclotomic relation: x^r - (reduction of x^r)
    red = _x_power_reduction(p)
    eq((x * p.r, one), *(((x * k), -red[k]) for k in range(p.r)))

    if n == 1:
        return eqs

    rho = p.rho
    delta = p.delta
    omega0 = p.omega0
    es = [bytes((E(i, n),)) for i in range(1, n)]
    gs = [bytes((G(i, n),)) for i in range(1, n)]
    rel_omegas = p.relation_omegas()

    for i in range(n - 1):
        e, g = es[i], gs[i]
        # (5) e^2 = omega_0 e
        eq((e + e, one), (e, -omega0))
        # (9) corrected: e g = g e = rho e
        eq((e + g, one), (e, -rho))
        eq((g + e, one), (e, -rho))
        # (12) after inverse elimination: g^2 = 1 + delta g - delta rho e
        eq((g + g, one), (b"", -one), (g, -delta), (e, delta * rho))

    for i in range(n - 2):
        e1, e2 = es[i], es[i + 1]
        g1, g2 = gs[i], gs[i + 1]
        # (2) braid
        eq((g1 + g2 + g1, one), (g2 + g1 + g2, -one))
        # (10); the curl between two caps carries the inverse twist scalar:
        # with e_i g_i = rho e_i and g_i g_{i+1} e_i = e_{i+1} e_i, reducing
        # e_i g_i g_{i+1} e_i both ways forces e_i g_{i+1} e_i = rho^{-1} e_i
        eq((e1 + g2 + e1, one), (e1, -rho.inv()))
        eq((e2 + g1 + e2, one), (e2, -rho.inv()))
        eq((e1 + e2 + e1, one), (e1, -one))
        eq((e2 + e1 + e2, one), (e2, -one))
        # (11)
        eq((g1 + g2 + e1, one), (e2 + e1, -one))
        eq((g2 + g1 + e2, one), (e1 + e2, -one))
        eq((e1 + g2 + g1, one), (e1 + e2, -one))
        eq((e2 + g1 + g2, one), (e2 + e1, -one))

    for i in range(n - 1):
        for j in range(n - 1):
            if abs(i - j) > 1 and i < j:
                # (3) and (8): distant generators commute
                eq((gs[i] + gs[j], one), (gs[j] + gs[i], -one))
                eq((es[i] + es[j], one), (es[j] + es[i], -one))
                eq((gs[i] + es[j], one), (es[j] + gs[i], -one))
                eq((es[i] + gs[j], one), (gs[j] + es[i], -one))

    # (4) and (7): x_1 interactions
    e1w, g1w = es[0], gs[0]
    eq((x + g1w + x + g1w, one), (g1w + x + g1w + x, -one))
    for j in range(1, n - 1):
        eq((x + gs[j], one), (gs[j] + x, -one))

    # (6) pole relations for irreducible x-powers
    for a in range(1, p.r):
        eq((e1w + x * a + e1w, one), (e1w, -rel_omegas[a]))

    # (13): left clause as printed; right clause per configured orientation
    eq((e1w + x + g1w + x + g1w, one), (e1w, -one))
    if orientation13 == "x1":
        eq((g1w + x + g1w + x + e1w, one), (e1w, -one))
    else:
        xinv = x_inverse_coeffs(p)
        terms = [(g1w + x * k + g1w + x + e1w, xinv[k]) for k in range(p.r)]
        eq(*terms, (e1w, -one))

    if variant == "ariki_koike":
        for e in es:
            eq((e, one))
    return eqs


# -- the algebra object ---------------------------------------------------------

class StructureAlgebra:
    """Finite-dimensional algebra with an explicit basis and exact products.

    The product table is the sparse structure constants b_i b_j = sum_k C b_k,
    stored once, column-major, by `_store`: `_table[j]` holds views of the
    arrays (I, K, C) of the products b_i b_j in (i, k) order, C in the
    field's array dtype (`linalg.dtype_for`).  `mul`, `right_matrix` and
    `left_matrix` are each one gather-scatter over the constants
    (`_gather`).  Over Q, C and every array the algebra hands out hold
    reduced Fractions, but the gather multiplies integer numerators: those
    of C over their common denominator (`_numerators`, made by `_store`)
    times those of its operands, with one Fraction made per output entry.

    An element (the unit, a generator, what `mul`, `nf_word`, `nf_element`
    and `star` return) is a vector of length dim in that dtype; methods take
    them through `dense`, which also accepts a dict, and never write into them.

    Two births: from a completed rewriting system (`basis`, the irreducible
    words), whose table `materialize()` fills on first use, or with the
    table given, from flat constants (`from_constants`: loaded dumps, and
    through `from_table` product tables) or from right multiplication
    matrices (`from_columns`: quotients, and through `from_rows` corners
    and the center algebra).

    A word-born algebra never reduces a concatenation b_i b_j: column j of
    its table is rho(b_j), the right action of b_j, walked by
    `rewriting.Basis.rho` through the actions NF(b_k g), dim x #gens of
    them, each computed once, as the completion's certificate is.  Normal
    forms in a confluent system are unique, so the table equals the normal
    forms of the concatenations entry for entry.
    """

    def __init__(self, field: Field, dim: int, unit, labels: Optional[List[str]],
                 gens: Optional[dict] = None, meta: Optional[dict] = None):
        self.field = field
        self.dim = dim
        self._unit = self.dense(unit)
        self.labels = labels or [f"b{i}" for i in range(dim)]
        self._table: List[tuple] = []   # the columns (I, K, C), in order of j
        self.gens = {name: self.dense(g) for name, g in (gens or {}).items()}
        self.meta = meta or {}
        self._constants = None   # sparse structure constants, see structure_constants
        self._numerators = None  # over Q: C as (integer numerators, common denominator)
        # word-born extras, set by from_rewriting
        self.rules: Optional[RewriteSystem] = None
        self.basis: Optional[Basis] = None
        self.n: Optional[int] = None
        self.params: Optional[ParameterSet] = None
        self.variant: Optional[str] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rewriting(cls, field: Field, rules: RewriteSystem,
                       n: int, params: ParameterSet, variant: str, meta: dict):
        basis = rules.basis
        alg = cls(field, len(basis.words), {0: field.one()},
                  [word_str(w, n) for w in basis.words], meta=meta)
        alg.rules, alg.basis, alg.n, alg.params, alg.variant = rules, basis, n, params, variant
        # the generator g is NF(g), once the rules are on the algebra
        alg.gens = {gen_name(g, n): alg.nf_word(bytes((g,))) for g in range(gen_count(n))}
        return alg

    @classmethod
    def from_table(cls, field: Field, table: Dict[Tuple[int, int], tuple], dim: int,
                   unit, labels: Optional[List[str]] = None,
                   gens: Optional[dict] = None, meta: Optional[dict] = None):
        """The algebra with products table[(i, j)] = ((k, c), ...)."""
        if len(table) != dim * dim:
            raise BuildError("product table is incomplete")
        entries = [(i, j, k, c) for (i, j), prod in table.items() for k, c in prod]
        I, J, K = np.array([e[:3] for e in entries], dtype=np.int64).reshape(-1, 3).T
        C = as_array([e[3] for e in entries], field.p)
        return cls.from_constants(field, dim, I, J, K, C, unit, labels, gens, meta)

    @classmethod
    def from_constants(cls, field: Field, dim: int, I, J, K, C, unit, labels, gens, meta):
        """The algebra with b_i b_j = sum of C b_K over the positions with
        (I, J) = (i, j), each product in strictly increasing k; one stable
        sort by (j, i) makes them column-major."""
        order = np.argsort(J * dim + I, kind="stable")
        I, J, K, C = I[order], J[order], K[order], C[order]
        bad = np.flatnonzero((I[1:] == I[:-1]) & (J[1:] == J[:-1]) & (K[1:] <= K[:-1])) + 1
        if len(bad):
            raise BuildError(f"the k of product ({I[bad[0]]}, {J[bad[0]]}) are not "
                             "strictly increasing")
        alg = cls(field, dim, unit, labels, gens=gens, meta=meta)
        alg._store(I, K, C, np.searchsorted(J, np.arange(dim + 1)))
        return alg

    @classmethod
    def from_columns(cls, field: Field, columns: List[np.ndarray], unit,
                     labels: Optional[List[str]], gens: Optional[dict], meta: Optional[dict]):
        """The algebra whose right multiplication by b_j is the reduced array
        columns[j]: row i of it holds the coordinates of b_i b_j."""
        alg = cls(field, len(columns), unit, labels, gens=gens, meta=meta)
        nonzero = [np.nonzero(column) for column in columns]
        alg._store(np.concatenate([I for I, _ in nonzero]), np.concatenate([K for _, K in nonzero]),
                   np.concatenate([column[I, K] for column, (I, K) in zip(columns, nonzero)]),
                   np.cumsum([0] + [len(I) for I, _ in nonzero]))
        return alg

    @classmethod
    def from_rows(cls, A: "StructureAlgebra", rows: np.ndarray, unit,
                  labels: Optional[List[str]] = None):
        """The subalgebra of A spanned by the independent rows of the array
        `rows`, with unit `unit` (an element of A).  Row a of rows R_{rows[b]}
        is rows[a] rows[b]; a product or unit outside the span raises."""
        m, basis = A.field.p, RowBasis(rows, A.field)
        # column b: the coordinates of the products rows[a] rows[b]; then the unit's
        x = [basis.coords(matmul_mod(rows, A.right_matrix(row), m)) for row in rows]
        x.append(basis.coords(A.dense(unit)))
        if any(c is None for c in x):
            raise BuildError("rows do not span a subalgebra")
        return cls.from_columns(A.field, x[:-1], x[-1], labels,
                                gens=None, meta={"parent_rows": rows})

    def materialize(self):
        """Fill a word-born table: column j is rho(b_j), walked over the
        basis words (`Basis.rho`), and the columns are stored once."""
        if self._constants is not None:
            return
        basis, I, K, C = self.basis, [], [], []
        for w, (rows, cols, vals) in zip(basis.words, basis.rho(basis.words)):
            I.append(rows)
            K.append(cols)
            # over Q the walk's numerators lie over denominator^len(w)
            C.append(vals if self.field.p else from_fraction_free(vals, basis.denominator**len(w)))
        colstart = np.cumsum([0] + [len(rows) for rows in I])
        # one array joined at a time: only its columns are held twice
        I = np.concatenate(I)
        K = np.concatenate(K)
        C = np.concatenate(C)
        self._store(I, K, C, colstart)

    # -- arithmetic ------------------------------------------------------------

    def product(self, i: int, j: int) -> tuple:
        """b_i b_j as (k, c) pairs in order of k."""
        I, _, K, C, colstart = self.structure_constants()
        lo = colstart[j]
        a, b = lo + np.searchsorted(I[lo:colstart[j + 1]], [i, i + 1])
        return tuple(zip(K[a:b].tolist(), C[a:b].tolist()))

    def structure_constants(self):
        """(I, J, K, C, colstart): the nonzero structure constants
        b_i b_j = sum_k C b_k as parallel arrays, column after column: the
        products b_i b_j of column j lie at colstart[j]:colstart[j+1], in
        (i, k) order.  A word-born table is filled on first use."""
        if self._constants is None:
            self.materialize()
        return self._constants

    def _store(self, I, K, C, colstart):
        """Keep the column-major constants, column j at colstart[j]:colstart[j+1],
        as the one table: `_table[j]` is a view of column j.  Over Q the
        numerators of C over their common denominator are made here, for
        `_gather`."""
        self._table = [(I[a:b], K[a:b], C[a:b]) for a, b in zip(colstart, colstart[1:])]
        J = np.repeat(np.arange(self.dim), np.diff(colstart))
        self._constants = (I, J, K, C, colstart)
        if not self.field.p:
            self._numerators = fraction_free(C)

    def _gather(self, sel: np.ndarray, factors: list, slots: np.ndarray,
                size: int) -> np.ndarray:
        """Vector of length `size` holding at slots[t] the sum of the terms
        C[sel[t]] * v[pos[t]] over every (v, pos) in `factors`.  Over GF(p)
        the terms are reduced once, by the scatter, when the bound on their
        total, len(sel) (p-1)^(len(factors)+1), is below 2^63, and after
        each factor otherwise."""
        m = self.field.p
        if m:
            vals = self.structure_constants()[3][sel]
            once = len(sel) * (m - 1) ** (len(factors) + 1) < 2**63
            for v, pos in factors:
                vals = v[pos] * vals if once else reduce_mod(v[pos] * vals, m)
            return scatter_add(slots, vals, size, m)
        vals, d = self._numerators
        vals = vals[sel]
        for v, pos in factors:
            nv, dv = fraction_free(v)
            vals, d = vals * nv[pos], d * dv
        out = np.zeros(size, dtype=object)
        np.add.at(out, slots, vals)
        return from_fraction_free(out, d)

    def mul(self, a, b) -> np.ndarray:
        """The product a b, a new vector."""
        I, J, K, _, colstart = self.structure_constants()
        va, vb = self.dense(a), self.dense(b)
        sel = runs(colstart, np.flatnonzero(vb))[0]
        sel = sel[va.astype(bool)[I[sel]]]
        return self._gather(sel, [(va, I[sel]), (vb, J[sel])], K[sel], self.dim)

    def right_matrix(self, x) -> np.ndarray:
        """Matrix of right multiplication by x: row i = coordinates of b_i x."""
        I, J, K, _, colstart = self.structure_constants()
        vx = self.dense(x)
        sel = runs(colstart, np.flatnonzero(vx))[0]
        return self._gather(sel, [(vx, J[sel])], I[sel] * self.dim + K[sel],
                            self.dim**2).reshape(self.dim, self.dim)

    def left_matrix(self, a) -> np.ndarray:
        """Matrix of left multiplication by a: row j = coordinates of a b_j."""
        I, J, K, _, _ = self.structure_constants()
        va = self.dense(a)
        sel = np.flatnonzero(va.astype(bool)[I])
        return self._gather(sel, [(va, I[sel])], J[sel] * self.dim + K[sel],
                            self.dim**2).reshape(self.dim, self.dim)

    def sandwich(self, e) -> np.ndarray:
        """Rows spanning e A e: row i of L_e R_e is e b_i e."""
        return matmul_mod(self.left_matrix(e), self.right_matrix(e), self.field.p)

    def unit(self) -> np.ndarray:
        """The unit, a copy."""
        return self._unit.copy()

    def multipliers(self) -> List[np.ndarray]:
        """The generators, or every basis element when none are known."""
        return list(self.gens.values()) or [self.dense({i: self.field.one()})
                                            for i in range(self.dim)]

    def dense(self, x) -> np.ndarray:
        """x as an element: a dict {index: raw coefficient} becomes a vector
        of length dim in the field's dtype; an array is returned as it is
        (no method writes into an element)."""
        if isinstance(x, np.ndarray):
            return x
        v = zeros(self.dim, self.field.p)
        v[list(x)] = list(x.values())
        return v

    # -- word-born helpers -------------------------------------------------------

    def _need_words(self):
        if self.rules is None:
            raise BuildError("operation needs a presentation-born algebra")

    def nf_word(self, w: bytes) -> np.ndarray:
        """NF(w), by `RewriteSystem.reduce`."""
        return self.nf_element({w: self.field.one()})

    def nf_element(self, elem: Dict[bytes, object]) -> np.ndarray:
        """NF of a word-keyed element {word: raw coefficient}."""
        self._need_words()
        red = self.rules.reduce(elem)
        return self.dense({self.basis.index[v]: c for v, c in red.items()})

    def star(self, x) -> np.ndarray:
        """The anti-involution fixing every generator: reverse words, reduce."""
        self._need_words()
        v = self.dense(x)
        nz = np.flatnonzero(v)
        # reversal is one-to-one on words: no two terms meet; Python scalars,
        # as `reduce` sums raw products, which would overflow in int64
        return self.nf_element({self.basis.words[i][::-1]: c
                                for i, c in zip(nz.tolist(), v[nz].tolist())})


# -- building -----------------------------------------------------------------

def expected_dimension(p: ParameterSet, n: int, variant: str,
                       d: Optional[int] = None):
    """(value, rule-name) per the applicable dimension theorem, or (None, None)."""
    fact = math.factorial(n)
    if variant == "ariki_koike":
        return p.r**n * fact, "cyclotomic-hecke-rank"
    if p.admissible:
        return p.r**n * double_factorial_odd(n), "admissible-rank"
    if d is not None:
        return (d**n * double_factorial_odd(n) + p.r**n * fact - d**n * fact,
                "semi-admissible-rank")
    return None, None


# (parameters, variant) -> accepted probe (orientation, cap, rules, completion);
# the rules carry the probe's basis and generator actions
_probe_cache: Dict[tuple, tuple] = {}


def _params_key(p: ParameterSet) -> str:
    return repr(_header(p))


def select_orientation13(p: ParameterSet, variant: str = "bmw") -> str:
    """Pick the relation-13 orientation that validates at n = 2.

    The candidate with y_1 read as x_1 is tried first; a candidate is
    accepted when completion succeeds, the rank matches the admissible
    formula (when the flag is set), and the pole relations
    e_1 x_1^a e_1 = omega_a e_1 hold up to a = 2r.  Probes always run at
    the default degree cap: a starved user cap should fail the real build
    as a resource error, not masquerade as an invalid orientation.  The
    accepted probe's completion is kept, and `build_algebra(2, ...)` at
    that cap reuses it.
    """
    key = (_params_key(p), variant)
    if key in _probe_cache:
        return _probe_cache[key][0]
    last_error = None
    for cand in ("x1", "x1inv"):
        try:
            alg = build_algebra(2, p, variant=variant, orientation13=cand)
        except CompletionError as exc:
            last_error = f"{cand}: {exc}"
            continue
        if p.admissible and variant == "bmw":
            want, _ = expected_dimension(p, 2, variant)
            if alg.dim != want:
                last_error = f"{cand}: dimension {alg.dim} != {want}"
                continue
        if variant == "bmw":
            rep = check_omega_relations(alg, p, 2 * p.r)
            if not rep.passed:
                last_error = f"{cand}: omega relations fail at {rep.failures}"
                continue
        _probe_cache[key] = (cand, alg.meta["degree_cap"], alg.rules,
                             alg.meta["completion"])
        return cand
    raise BuildError(f"no relation-13 orientation validates: {last_error}")


def build_algebra(n: int, p: ParameterSet, variant: str = "bmw",
                  degree_cap: Optional[int] = None,
                  orientation13: Optional[str] = None) -> StructureAlgebra:
    """Complete the presentation and return the finite-dimensional quotient."""
    if not 1 <= n <= MAX_N:
        raise BuildError(f"n = {n} is outside 1..{MAX_N}, the n whose generator ids are bytes")
    cap = degree_cap if degree_cap is not None else default_degree_cap(n, p.r)
    if orientation13 is None:
        orientation13 = "x1" if n == 1 else select_orientation13(p, variant=variant)
    probe = _probe_cache.get((_params_key(p), variant)) if n == 2 else None
    if probe is not None and probe[:2] == (orientation13, cap):
        rules, completion = probe[2:]
    else:
        eqs = canonical_relations(n, p, variant=variant, orientation13=orientation13)
        rules, stats = complete(eqs, p.field, cap)
        completion = stats.as_dict()
    # `complete` leaves a basis whenever the words are finite at the cap
    if rules.basis is None:
        raise CompletionError(f"irreducible words persist at degree {cap}; "
                              "the quotient looks infinite-dimensional under this cap")
    alg = StructureAlgebra.from_rewriting(p.field, rules, n, p, variant, {
        "n": n,
        "r": p.r,
        "variant": variant,
        "dimension": len(rules.basis.words),
        "relation13_orientation": orientation13,
        "relation13_note": "y_1 in the printed right clause is undefined; "
                           f"resolved by validation to {orientation13!r}",
        "degree_cap": cap,
        "completion": dict(completion),
    })
    d = None
    if variant == "bmw" and not p.admissible and n >= 2:
        # a confluent n = 2 system is the same at any cap: use the probe's
        d = _semi_degree(alg) if n == 2 else semi_admissibility_degree(
            p, orientation13=orientation13)
    alg.meta["expected_dimension"], alg.meta["expected_rule"] = expected_dimension(
        p, n, variant, d=d)
    return alg


def _semi_degree(A: StructureAlgebra) -> int:
    """Minimal d with {e_1, e_1 x_1, ..., e_1 x_1^d} dependent in the n = 2 algebra A."""
    e1, x = bytes((E(1, 2),)), bytes((X(2),))
    span = EchelonSpan(A.field, A.dim)
    for k in range(A.params.r + 1):
        if not span.insert(A.nf_word(e1 + x * k)):
            return k
    return A.params.r


# -- operations on built algebras ----------------------------------------------

class OmegaRelationReport:
    def __init__(self, entries):
        self.entries = entries          # list of (a, passed)
        self.failures = [a for a, ok in entries if not ok]
        self.passed = not self.failures

    def __bool__(self):
        return self.passed


def check_omega_relations(A: StructureAlgebra, p: ParameterSet, a_max: int) -> OmegaRelationReport:
    """Verify e_1 x_1^a e_1 = omega_a e_1 in A for 0 <= a <= a_max."""
    A._need_words()
    if A.n < 2:
        raise BuildError("omega relations need n >= 2")
    e1 = bytes((E(1, A.n),))
    x = bytes((X(A.n),))
    e1_coords = A.nf_word(e1)
    entries = []
    for a in range(a_max + 1):
        lhs = A.nf_word(e1 + x * a + e1)
        rhs = reduce_mod(omega(p, a).value * e1_coords, A.field.p)
        entries.append((a, np.array_equal(lhs, rhs)))
    return OmegaRelationReport(entries)


def semi_admissibility_degree(p: ParameterSet, degree_cap: Optional[int] = None,
                              orientation13: Optional[str] = None) -> int:
    """Minimal d with {e_1, e_1 x_1, ..., e_1 x_1^d} dependent in the n = 2 quotient."""
    return _semi_degree(build_algebra(2, p, variant="bmw", degree_cap=degree_cap,
                                      orientation13=orientation13))


def ideal_span(A: StructureAlgebra, rows) -> EchelonSpan:
    """Echelon span of the two-sided ideal generated by the dense `rows`:
    the span of rows, grown by its rows times each of `A.multipliers()` on
    either side until it stops growing."""
    m = A.field.p
    span = EchelonSpan(A.field, A.dim, rows)
    if not span.dim:
        return span
    actions = [M for g in A.multipliers() for M in (A.right_matrix(g), A.left_matrix(g))]
    while True:
        grown = EchelonSpan(A.field, A.dim, np.vstack(
            [span.rows] + [matmul_mod(span.rows, M, m) for M in actions]))
        if grown.dim == span.dim:
            return span
        span = grown


def ideal_generated_by(A: StructureAlgebra, x):
    """(dimension, echelon row basis) of the two-sided ideal A x A."""
    span = ideal_span(A, [A.dense(x)])
    return span.dim, span.rows


def truncation_idempotent(A: StructureAlgebra, p: ParameterSet) -> np.ndarray:
    """omega_0^{-1} e_{n-1}, falling back to rho * e_{n-1} g_{n-2} when
    omega_0 = 0 (which needs n >= 3); idempotency is verified, not assumed.

    The fallback scalar is rho, not rho^{-1}: squaring rho e_{n-1} g_{n-2}
    gives rho^2 (e_{n-1} g_{n-2} e_{n-1}) g_{n-2} = rho e_{n-1} g_{n-2} by
    the corrected curl relation, so this is the choice that squares to
    itself.
    """
    A._need_words()
    n = A.n
    if n < 2:
        raise BuildError("truncation idempotent needs n >= 2")
    if not p.omega0.is_zero():
        w = bytes((E(n - 1, n),))
        scale = p.omega0.inv().value
    else:
        if n < 3:
            raise BuildError("omega_0 = 0 branch needs n >= 3 (uses g_{n-2})")
        w = bytes((E(n - 1, n), G(n - 2, n)))
        scale = p.rho.value
    coords = reduce_mod(scale * A.nf_word(w), A.field.p)
    if not np.array_equal(A.mul(coords, coords), coords):
        raise BuildError("constructed element is not idempotent; presentation broken")
    return coords


def corner_algebra(A: StructureAlgebra, e: np.ndarray) -> StructureAlgebra:
    """The corner eAe with unit e, as a structure-constants algebra."""
    if not e.any():
        raise BuildError("corner requires a nonzero idempotent")
    if not np.array_equal(A.mul(e, e), e):
        raise BuildError("corner requires an idempotent")
    rows = EchelonSpan(A.field, A.dim, A.sandwich(e)).rows
    return StructureAlgebra.from_rows(A, rows, e, labels=[f"c{i}" for i in range(len(rows))])


# -- canonical JSON dump ---------------------------------------------------------

_DUMP_ROWS = 64   # rows i per joined chunk of the products text: 0.8M entries at B(1,5)


def _distinct(keys: np.ndarray, size: int):
    """(values, inverse): the distinct entries of keys, and the index of
    each entry among them.  int64 keys in range(size) are marked in a
    presence array when size is not much beyond len(keys).  Other keys
    (Fractions, big ints, a wide range) are hashed by their integer ratio,
    which hashes faster than a Fraction."""
    if keys.dtype == object or size > 4 * len(keys) + 4096:
        index: Dict[tuple, int] = {}
        inverse = np.array([index.setdefault(x.as_integer_ratio(), len(index))
                            for x in keys.tolist()], dtype=np.int64)
        values = np.empty(len(index), dtype=keys.dtype)
        values[inverse] = keys
        return values, inverse
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]


def _header(p: ParameterSet) -> dict:
    """The parameters' part of the dump's header: field, r and params."""
    params = {"q": str(p.q), "rho": str(p.rho), "u": [str(x) for x in p.u],
              "admissible": p.admissible}
    if not p.admissible and p.r > 1:
        params["omega"] = [str(w) for w in p._explicit]
    return {"field": p.field.descriptor_string(), "r": p.r, "params": params}


def dump_algebra(A: StructureAlgebra) -> dict:
    """The canonical dump as a dict: `dumps_algebra`'s text, parsed."""
    return json.loads(dumps_algebra(A))


def dumps_algebra(A: StructureAlgebra) -> str:
    """Canonical JSON text of A, byte-identical across runs and across
    dump -> load -> dump; needs the parameter set, which a corner lacks.

    The text is json.dumps(blob, sort_keys=True, separators=(",", ":"))
    of a blob whose "products" lists [i, j, [[k, "c"], ...]] for every
    b_i b_j = sum c b_k, in (i, j, k) order.  The products are rendered
    straight from the structure constants: each distinct constant is
    rendered and quoted once, each distinct entry [k,"c"] (and its
    comma-led twin) is made once, and the rows i are joined _DUMP_ROWS at
    a time."""
    p = A.params
    if p is None:
        raise BuildError("dump needs an algebra built or loaded with its parameters")
    f, dim = A.field, A.dim
    header = {**_header(p), "n": A.n, "variant": A.variant, "basis": list(A.labels),
              "products": None}
    # the header's text, split where the products go: a quote inside a JSON
    # string is escaped, so the key is found once
    before, after = json.dumps(header, sort_keys=True,
                               separators=(",", ":")).split('"products":null')

    I, J, K, C, _ = A.structure_constants()
    values, inverse = _distinct(C, f.p)
    quoted = [json.dumps(f.render(c)) for c in values.tolist()]
    keys, e_of = _distinct(K * len(values) + inverse, dim * len(values))
    del inverse
    ks, cs = divmod(keys, len(values))
    entries = [f"[{k},{quoted[c]}]" for k, c in zip(ks.tolist(), cs.tolist())]
    table = np.array(entries + ["," + e for e in entries], dtype=object)
    # the columns come in order of j, each in (i, k) order: a stable sort by
    # i gives the (i, j, k) order, in which the entries of b_i b_j, with
    # t = i dim + j, lie at bounds[t]:bounds[t + 1]
    counts = np.bincount(I * dim + J, minlength=dim * dim)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    # every entry is the comma-led twin but the first of its product
    tok = e_of[np.argsort(I, kind="stable")] + len(entries)
    del e_of
    tok[bounds[:-1][counts > 0]] -= len(entries)
    # product (i, j) opens with "]],[i," (closing the one before it) and "j,["
    opens = np.array([f"]],[{i}," for i in range(dim)], dtype=object)
    cols = np.array([f"{j},[" for j in range(dim)], dtype=object)
    chunks = []
    for i0 in range(0, dim, _DUMP_ROWS):
        rows = opens[i0:i0 + _DUMP_ROWS]
        t0, t1 = i0 * dim, (i0 + len(rows)) * dim
        lo = bounds[t0]
        at = bounds[t0:t1] - lo + 2 * np.arange(t1 - t0)
        pieces = np.empty(bounds[t1] - lo + 2 * (t1 - t0), dtype=object)
        pieces[at] = np.repeat(rows, dim)
        pieces[at + 1] = np.tile(cols, len(rows))
        entry = np.ones(len(pieces), dtype=bool)
        entry[at] = entry[at + 1] = False
        pieces[entry] = table[tok[lo:bounds[t1]]]
        if not i0:
            pieces[0] = "[[0,"
        chunks.append("".join(pieces.tolist()))
    return "".join([before, '"products":', *chunks, "]]]", after, "\n"])


def load_algebra(blob: dict) -> StructureAlgebra:
    """Rebuild a table-born algebra (plus parameters) from a dump; the
    constants go straight into flat arrays (`StructureAlgebra.from_constants`).
    The header and the basis labels must be those its algebra's dump writes."""
    try:
        field = Field.from_descriptor(blob["field"])
        pb = blob["params"]
        if type(pb["admissible"]) is not bool:
            raise ValueError(f"admissible = {pb['admissible']!r} is not a bool")
        p = ParameterSet(field, pb["q"], pb["rho"], pb["u"],
                         admissible=pb["admissible"],
                         omegas=pb.get("omega"))
        n, r, variant = blob["n"], blob["r"], blob["variant"]
        if type(n) is not int or n < 1:
            raise ValueError(f"n = {n!r} is not an integer >= 1")
        if type(r) is not int or r != p.r:
            raise ValueError(f"r = {r!r} but the parameters hold {p.r} values u")
        if variant not in ("bmw", "ariki_koike"):
            raise ValueError(f"unknown variant {variant!r}")
        header = {**_header(p), "n": n, "variant": variant}
        for key in sorted(set(blob) - {"basis", "products"} | set(header)):
            if blob.get(key) != header.get(key):
                raise ValueError(f"header {key!r} reads {blob.get(key)!r}, not {header.get(key)!r}")
        labels = blob["basis"]
        dim = len(labels)
        if len(set(labels)) < dim:
            repeated = next(lab for t, lab in enumerate(labels) if lab in labels[:t])
            raise ValueError(f"repeated basis label {repeated!r}")
        bad = [lab for lab in labels
               if type(lab) is not str or word_str(parse_word(lab, n), n) != lab]
        if bad:
            raise ValueError(f"basis label {bad[0]!r} is not a word for n = {n}")
        # semi-admissible dimensions need d, which needs a build: labels only
        want, _ = expected_dimension(p, n, variant)
        if want is not None and dim != want:
            raise ValueError(f"{dim} basis elements, but n = {n} has dimension {want}")
        products = blob["products"]
        heads = [x for i, j, _ in products for x in (i, j)]
        ks = [k for _, _, entries in products for k, _ in entries]
        index = heads + ks
        # JSON integers only: a float, bool or string index is corruption
        bad = [x for x in index if type(x) is not int]
        if bad:
            raise ValueError(f"product index {bad[0]!r} is not an integer")
        if index and not 0 <= min(index) <= max(index) < dim:
            raise ValueError(f"a product index lies outside range({dim})")
        del index   # every index again: only the two checks above read it
        PI, PJ = np.array(heads, dtype=np.int64).reshape(-1, 2).T
        # every product (i, j) once: the first that is not names the fault
        seen = np.bincount(PI * dim + PJ, minlength=dim * dim)
        if (seen != 1).any():
            t = int(np.argmax(seen != 1))
            raise ValueError(f"repeated product ({t // dim}, {t % dim})" if seen[t]
                             else "product table is incomplete")
        consts = [c for _, _, entries in products for _, c in entries]
        bad = [c for c in consts if type(c) is not str]
        if bad:
            raise ValueError(f"structure constant {bad[0]!r} is not a string")
        # each distinct string is parsed once and must be its value's rendering
        values = {s: field.parse(s) for s in dict.fromkeys(consts)}
        bad = [s for s, c in values.items() if field.render(c) != s]
        if bad:
            raise ValueError(f"structure constant {bad[0]!r} is not in canonical form")
        C = as_array([values[s] for s in consts], field.p)
        del consts   # as large as C: freed before the sort in from_constants
        # a canonical dump lists nonzero constants only
        if np.count_nonzero(C) < len(C):
            raise ValueError("a structure constant is zero")
        unit = {labels.index("1"): field.one()}
        gens = {lab: {i: field.one()} for i, lab in enumerate(labels)
                if "." not in lab and lab != "1"}
        sizes = [len(entries) for _, _, entries in products]
        alg = StructureAlgebra.from_constants(
            field, dim, np.repeat(PI, sizes), np.repeat(PJ, sizes), np.array(ks, dtype=np.int64),
            C, unit, labels, gens, {"n": n, "variant": variant})
    except (KeyError, TypeError, ValueError) as exc:
        raise BuildError(f"corrupted algebra dump: {exc}") from exc
    alg.params = p
    alg.n = n
    alg.variant = variant
    return alg
