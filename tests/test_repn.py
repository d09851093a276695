import collections
import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cycbmw.acceptance import omega_zero_parameters, semi_parameters
from cycbmw.fields import GF, QQ
from cycbmw.linalg import (EchelonSpan, RowBasis, as_array, dtype_for, matmul_mod, nullspace,
                           rank_profile, reduce_mod)
from cycbmw.params import ParameterSet
from cycbmw.presentation import (BuildError, StructureAlgebra, build_algebra,
                                 corner_algebra, ideal_generated_by, truncation_idempotent)
from cycbmw import repn
from cycbmw.repn import (_coprime_idempotent_polys, center,
                         central_primitive_idempotents,
                         functor_grading_check, radical, semisimple_quotient,
                         simple_modules, truncate_module, wedderburn)
from cycbmw.combinatorics import Multicharge, classify_cyclotomic, simple_count

F101 = GF(101)


def dual_numbers(field):
    one = field.one()
    table = {(0, 0): ((0, one),), (0, 1): ((1, one),),
             (1, 0): ((1, one),), (1, 1): ()}
    return StructureAlgebra.from_table(field, table, 2, {0: one},
                                       labels=["1", "t"], gens={"t": {1: one}})


def matrix_algebra(field, d):
    one = field.one()
    idx = {(a, b): (a - 1) * d + (b - 1) for a in range(1, d + 1)
           for b in range(1, d + 1)}
    table = {}
    for (a, b), i in idx.items():
        for (c, e), j in idx.items():
            table[(i, j)] = ((idx[(a, e)], one),) if b == c else ()
    unit = {idx[(a, a)]: one for a in range(1, d + 1)}
    gens = {f"E{a}{b}": {i: one} for (a, b), i in idx.items()}
    labels = [f"E{a}{b}" for a in range(1, d + 1) for b in range(1, d + 1)]
    return StructureAlgebra.from_table(field, table, d * d, unit,
                                       labels=labels, gens=gens)


def group_algebra_s3(field):
    one = field.one()
    perms = list(itertools.permutations((0, 1, 2)))
    pidx = {p: i for i, p in enumerate(perms)}
    table = {}
    for p in perms:
        for q in perms:
            comp = tuple(p[q[i]] for i in range(3))
            table[(pidx[p], pidx[q])] = ((pidx[comp], one),)
    return StructureAlgebra.from_table(
        field, table, 6, {pidx[(0, 1, 2)]: one},
        labels=[str(p) for p in perms],
        gens={"s1": {pidx[(1, 0, 2)]: one}, "s2": {pidx[(0, 2, 1)]: one}})


def generic(r, sep=4):
    q = F101(2)
    u = [(q * q) ** (1 + sep * i) for i in range(r)]
    prod = F101(1)
    for x in u:
        prod = prod * x
    alpha = F101(1) if r % 2 else q.inv()
    rho = (alpha * prod).inv()
    return ParameterSet(F101, q, rho, u, admissible=True)


def test_radical_of_field_is_zero():
    for field in (QQ, GF(7)):
        one = field.one()
        A = StructureAlgebra.from_table(field, {(0, 0): ((0, one),)}, 1,
                                        {0: one}, labels=["1"])
        assert radical(A).tolist() == []


def test_radical_dual_numbers():
    for field in (QQ, GF(2), GF(101)):
        A = dual_numbers(field)
        rad = radical(A)
        assert len(rad) == 1
        rep = wedderburn(A, rad)
        assert rep.block_dims_sorted() == [1] and rep.split


def test_radical_matrix_algebra_char_p():
    # the plain trace form degenerates on M_2 over GF(2); the p-power
    # refinement must still find radical 0
    A = matrix_algebra(GF(2), 2)
    assert radical(A).tolist() == []
    rep = wedderburn(A, [])
    assert rep.block_dims_sorted() == [2] and rep.split


def gf4_over_gf2():
    """GF(4) = GF(2)[w]/(w^2 + w + 1) as a 2-dimensional GF(2)-algebra."""
    F2 = GF(2)
    one = F2.one()
    tbl = {(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),),
           (1, 1): ((0, one), (1, one))}
    return StructureAlgebra.from_table(F2, tbl, 2, {0: one}, labels=["1", "w"],
                                       gens={"w": {1: one}})


def test_nonsplit_detected():
    # GF(4) as a GF(2)-algebra: one block, center degree 2, not split
    A = gf4_over_gf2()
    rep = wedderburn(A, radical(A))
    assert not rep.split
    assert rep.block_info[0].center_degree == 2


def test_to_json_reports_blocks_and_caveats():
    A = gf4_over_gf2()
    payload = wedderburn(A, radical(A)).to_json()
    assert payload["blocks"] == [1] and payload["split"] is False
    assert payload["caveats"] == []
    assert payload["block_info"] == [{"dim": 2, "center_degree": 2, "matrix_size": 1,
                                      "division_dim": None, "split": False}]


def _minimal_polynomial(S, w, unit):
    """Monic minimal polynomial (ascending raw coefficients) of w in the
    unital algebra (span, unit): the reference for repn._split."""
    f = S.field
    Rw = S.right_matrix(w)
    cur = S.dense(unit)
    span = EchelonSpan(f, S.dim, [cur])
    powers = [cur]
    while True:
        cur = matmul_mod(cur, Rw, f.p)
        if not span.insert(cur):
            coeffs = RowBasis(powers, f).coords(cur)
            return [f.neg(c) for c in coeffs] + [f.one()]
        powers.append(cur)


def _eval_poly(S, coeffs, w, unit):
    """Horner evaluation of sum c_k w^k with w^0 = unit."""
    m = S.field.p
    Rw = S.right_matrix(w)
    u = S.dense(unit)
    acc = S.dense({})
    for c in reversed(coeffs):
        acc = reduce_mod(matmul_mod(acc, Rw, m) + c * u, m)
    return acc


def _split_in_algebra(S, center_rows):
    """The split of the center run on dim-sized elements of S itself: the
    reference that central_primitive_idempotents must reproduce."""
    f = S.field
    idems = [S.unit()] if S.unit().any() else []
    for z in center_rows:
        nxt = []
        for eps in idems:
            w = S.mul(S.mul(eps, z), eps)
            hs = _coprime_idempotent_polys(_minimal_polynomial(S, w, eps), f)
            if not hs:
                nxt.append(eps)
                continue
            for h in hs:
                part = _eval_poly(S, h, w, eps)
                if part.any():
                    nxt.append(part)
        idems = nxt
    return idems


SPLIT_CASES = {
    "gf4_over_gf2": gf4_over_gf2,
    "s3_q": lambda: group_algebra_s3(QQ),
    "s3_gf3": lambda: group_algebra_s3(GF(3)),
    "m2_gf2": lambda: matrix_algebra(GF(2), 2),
    "gf101_b22": lambda: build_algebra(2, generic(2)),
    "q_b13": lambda: build_algebra(3, ParameterSet(QQ, 2, 1, [1], admissible=True)),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_center_split_matches_split_in_algebra(case):
    A = SPLIT_CASES[case]()
    S = semisimple_quotient(A, radical(A)).S
    cen = center(S)
    idems = central_primitive_idempotents(S, cen)
    assert [e.tolist() for e in idems] == [e.tolist() for e in _split_in_algebra(S, cen)]
    f = S.field
    total = [f.zero()] * S.dim
    for a, e in enumerate(idems):
        for b, e2 in enumerate(idems):
            assert np.array_equal(S.mul(e, e2), e if a == b else S.dense({}))
        for g in S.gens.values():
            assert np.array_equal(S.mul(e, g), S.mul(g, e))
        total = [f.add(t, c) for t, c in zip(total, e.tolist())]
    assert total == S.unit().tolist()


def test_linear_minimal_polynomial_is_not_factored(monkeypatch):
    def boom(*args):
        raise AssertionError("a linear polynomial was factored")
    monkeypatch.setattr(repn, "_q_factors", boom)
    monkeypatch.setattr(repn, "_gfp_factors", boom)
    assert _coprime_idempotent_polys([3, 1], F101) == []
    assert _coprime_idempotent_polys([Fraction(-2, 3), Fraction(1)], QQ) == []


def test_quadratic_minimal_polynomial_splits():
    # x^2 - 1 = (x - 1)(x + 1): h_a is 1 at one root and 0 at the other
    for f in (F101, QQ):
        hs = _coprime_idempotent_polys([f.of_int(-1), f.zero(), f.one()], f)
        assert len(hs) == 2

        def at(h, x):
            acc = f.zero()
            for c in reversed(h):
                acc = f.add(f.mul(acc, f.of_int(x)), c)
            return acc
        values = sorted((at(h, 1), at(h, -1)) for h in hs)
        assert values == sorted([(f.zero(), f.one()), (f.one(), f.zero())])


def _sympy_coprime_idempotent_polys(mp_coeffs, f):
    """The h lists from sympy's factoring and its `invert`, as computed before
    the GF(p) kernel: the oracle for `_coprime_idempotent_polys`."""
    if len(mp_coeffs) <= 2:
        return []
    dom = {"modulus": f.p} if f.p else {"domain": "QQ"}
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(mp_coeffs)], sympy.Symbol("x"), **dom)
    _, factors = poly.factor_list()
    if len(factors) < 2:
        return []
    primaries = [fac**mult for fac, mult in factors]
    out = []
    for a, pa in enumerate(primaries):
        rest = poly.one
        for b, pb in enumerate(primaries):
            if b != a:
                rest = rest * pb
        h = (rest * sympy.invert(rest, pa)) % poly
        out.append([f.div(f.of_int(int(c.p)), f.of_int(int(c.q)))
                    for c in reversed(h.all_coeffs())])
    return out


ORACLE_FIELDS = [GF(p) for p in (2, 3, 5, 7, 13, 101, 65521, 2**31 - 1, 2**61 - 1)] + [QQ]


@st.composite
def _factor_products(draw):
    """(field, ascending coefficients of a monic product): linear and
    irreducible factors of degree 2 or 3 with multiplicities, and over GF(p)
    for p <= 7 a p-th power, whose derivative vanishes."""
    f = draw(st.sampled_from(ORACLE_FIELDS))
    x = sympy.Symbol("x")
    dom = {"modulus": f.p} if f.p else {"domain": "QQ"}
    coeff = (st.integers(0, f.p - 1) if f.p else
             st.fractions(min_value=-4, max_value=4, max_denominator=3).map(sympy.Rational))

    def monic(degree):
        return st.lists(coeff, min_size=degree, max_size=degree).map(
            lambda cs: sympy.Poly([1, *cs], x, **dom))

    linear = st.tuples(monic(1), st.integers(1, 3))
    irreducible = st.tuples(st.integers(2, 3).flatmap(monic).filter(
        lambda g: g.is_irreducible), st.integers(1, 2))
    kinds = [linear, irreducible]
    if 0 < f.p <= 7:
        kinds.append(st.tuples(monic(1), st.just(f.p)))
    poly = sympy.Poly(1, x, **dom)
    for g, k in draw(st.lists(st.one_of(kinds), min_size=1, max_size=4)):
        poly = poly * g**k
    return f, [f(Fraction(int(c.p), int(c.q))).value for c in reversed(poly.all_coeffs())]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_factor_products())
def test_idempotent_polys_match_sympy(case):
    f, mp = case
    assert _coprime_idempotent_polys(mp, f) == _sympy_coprime_idempotent_polys(mp, f)


@st.composite
def _wide_q_products(draw):
    """Ascending coefficients of a monic product over Q of linear and
    irreducible quadratic or cubic factors with multiplicities, whose
    coefficients have numerators up to 10^6 and denominators up to 10^3:
    the factors mod p are lifted through many powers of p."""
    x = sympy.Symbol("x")
    coeff = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**3).map(sympy.Rational)

    def monic(degree):
        return st.lists(coeff, min_size=degree, max_size=degree).map(
            lambda cs: sympy.Poly([1, *cs], x, domain="QQ"))

    factor = st.one_of(st.tuples(monic(1), st.integers(1, 2)),
                       st.tuples(st.integers(2, 3).flatmap(monic).filter(
                           lambda g: g.is_irreducible), st.integers(1, 2)))
    poly = sympy.Poly(1, x, domain="QQ")
    for g, k in draw(st.lists(factor, min_size=2, max_size=3)):
        poly = poly * g**k
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(_wide_q_products())
def test_idempotent_polys_match_sympy_on_wide_rationals(mp):
    assert _coprime_idempotent_polys(mp, QQ) == _sympy_coprime_idempotent_polys(mp, QQ)


_X = sympy.Symbol("x")


@pytest.mark.parametrize("poly", [
    _X**4 + 1, _X**4 - 10 * _X**2 + 1,                 # irreducible, split mod every p
    (_X**2 - 2) * (_X**2 - 3), (_X**2 + 1)**2 * (_X - 3),
    (_X**4 + 1) * (3 * _X - 1) * (2 * _X + 5)**2, (_X**4 - 10 * _X**2 + 1) * (_X**2 - 5),
    _X * (_X - 1)**2 * (_X + 2)**3, _X**8 - 1], ids=str)
def test_q_factors_where_the_factors_mod_p_differ(poly):
    P = sympy.Poly(poly, _X, domain="QQ").monic()
    mp = [Fraction(int(c.p), int(c.q)) for c in reversed(P.all_coeffs())]
    want = [([Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())], k)
            for g, k in P.factor_list()[1]]
    assert repn._q_factors(mp) == want
    assert _coprime_idempotent_polys(mp, QQ) == _sympy_coprime_idempotent_polys(mp, QQ)


def test_gfp_split_never_asks_sympy_to_factor(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("sympy asked to factor over GF(p)")
    monkeypatch.setattr(sympy.Poly, "factor_list", boom)
    A = build_algebra(3, semi_parameters())
    rep = wedderburn(A, radical(A))
    assert rep.split and rep.block_dims_sorted() == [3, 3, 3, 2, 2, 1, 1, 1, 1]


def test_group_algebra_s3_rational():
    A = group_algebra_s3(QQ)
    rep = wedderburn(A, radical(A))
    assert rep.radical_dim == 0
    assert rep.block_dims_sorted() == [2, 1, 1]
    assert rep.split


def test_group_algebra_s3_char3():
    # 3 | |S3|: not semisimple; blocks of the quotient are {1,1}
    A = group_algebra_s3(GF(3))
    rad = radical(A)
    rep = wedderburn(A, rad)
    assert rep.radical_dim == 4
    assert rep.block_dims_sorted() == [1, 1] and rep.split


def test_quotient_is_semisimple():
    for A in (group_algebra_s3(GF(3)), dual_numbers(QQ)):
        rad = radical(A)
        S = semisimple_quotient(A, rad).S
        assert radical(S).tolist() == []


def _quotient_by_entries(A, rad_rows):
    """Table, unit and gens of A/rad one product and one reduction at a
    time: the reference for semisimple_quotient."""
    span = EchelonSpan(A.field, A.dim, rad_rows)
    complement = [j for j in range(A.dim) if j not in span.pivots]
    pos = {j: t for t, j in enumerate(complement)}

    def project(coords):
        vec = span.reduce(A.dense(coords)).tolist()
        return {pos[j]: vec[j] for j in complement if vec[j]}
    table = {(a, b): tuple(sorted(project(dict(A.product(i, j))).items()))
             for a, i in enumerate(complement) for b, j in enumerate(complement)}
    return table, project(A.unit()), {name: project(c) for name, c in A.gens.items()}


QUOTIENT_CASES = {
    "semi_b23": lambda: build_algebra(3, semi_parameters()),
    "q_b32": lambda: build_algebra(2, ParameterSet(QQ, 2, 1, [1, 4, Fraction(1, 4)],
                                                   admissible=True)),
    "q_b13": lambda: build_algebra(3, ParameterSet(QQ, 2, 1, [1], admissible=True)),
    "dual_q": lambda: dual_numbers(QQ),
}


@pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
def test_quotient_matches_entrywise_reference(case):
    A = QUOTIENT_CASES[case]()
    rad = radical(A)
    assert rad.tolist()
    S = semisimple_quotient(A, rad).S
    table, unit, gens = _quotient_by_entries(A, rad)
    products = {(a, b): S.product(a, b) for a in range(S.dim) for b in range(S.dim)}
    # repr also tells a Python scalar from a numpy one
    assert repr((sorted(products.items()), _pairs(S.unit()),
                 {name: _pairs(g) for name, g in S.gens.items()})) == repr(
        (sorted(table.items()), sorted(unit.items()),
         {name: sorted(g.items()) for name, g in gens.items()}))


def test_radical_nilpotent_and_ideal():
    A = group_algebra_s3(GF(3))
    rad = radical(A)
    f = A.field
    # rad^k = 0 for some k <= dim
    layer = list(rad)
    for _ in range(A.dim + 1):
        if not layer:
            break
        nxt = []
        for a in layer:
            for b in rad:
                prod = A.mul(a, b)
                if prod.any():
                    nxt.append(prod)
        layer = nxt
    assert not layer


def test_count_simples_bmw_instances():
    for (r, n), want in (((1, 2), 3), ((1, 3), 4)):
        A = build_algebra(n, generic(r))
        rep = wedderburn(A, radical(A))
        assert rep.split and len(rep.blocks) == want


def test_count_simples_matches_classification_nongeneric():
    # closely-spaced charges: nonzero radical, count still matches
    p = generic(2, sep=1)
    A = build_algebra(2, p)
    rep = wedderburn(A, radical(A))
    cls = classify_cyclotomic(p, Multicharge.from_parameters(p), 2)
    assert rep.split
    assert len(rep.blocks) == len(cls)
    assert rep.radical_dim > 0


def test_ariki_koike_root_of_unity_count():
    q = F101(10)              # q^2 = -1 has order 2
    u1 = q * q
    p = ParameterSet(F101, q, u1.inv(), [u1], admissible=True)
    assert p.e == 2
    A = build_algebra(2, p, variant="ariki_koike")
    rep = wedderburn(A, radical(A))
    assert rep.split and len(rep.blocks) == 1


def test_block_dims_sum_of_squares():
    A = build_algebra(3, generic(1))
    rep = wedderburn(A, radical(A))
    assert sum(d * d for d in rep.blocks) + rep.radical_dim == A.dim
    assert rep.to_json()["blocks"] == [3, 2, 1, 1]


def test_simple_modules_and_action_consistency():
    A = build_algebra(3, generic(1))
    rep = wedderburn(A, radical(A))
    mods = simple_modules(A, rep)
    assert sorted(m.dim for m in mods) == [1, 1, 2, 3]
    f = A.field
    rng = random.Random(6)
    for M in mods:
        names = list(A.gens)
        for _ in range(20):
            a = A.gens[rng.choice(names)]
            b = A.gens[rng.choice(names)]
            left = M.action_matrix(A.mul(a, b)).tolist()
            right = matmul_mod(as_array(M.action_matrix(a), f.p),
                               as_array(M.action_matrix(b), f.p), f.p).tolist()
            assert left == right


def test_truncate_module_extremes():
    A = build_algebra(3, generic(1))
    p = A.params
    rep = wedderburn(A, radical(A))
    mods = simple_modules(A, rep)
    e = truncation_idempotent(A, p)
    C = corner_algebra(A, e)
    dims = []
    for M in mods:
        T = truncate_module(M, e)
        dims.append((M.dim, T.dim))
        # dim(Me) + dim(M(1-e)) = dim M
        f = A.field
        one_minus_e = as_array([f.sub(u, c) for u, c in zip(A.unit().tolist(), e.tolist())], f.p)
        T2 = truncate_module(M, one_minus_e)
        assert T.dim + T2.dim == M.dim
        # e = 1 keeps everything, e = 0 kills everything
        assert truncate_module(M, A.unit()).dim == M.dim
        assert truncate_module(M, {}).dim == 0
    assert sorted(t for _, t in dims) == [0, 0, 0, 1]


def test_regular_module_truncation_rank():
    # M = regular module: dim(Me) equals the rank of e's right action
    from cycbmw.repn import ModuleRep, semisimple_quotient
    p = generic(1)
    A = build_algebra(3, p)
    quot = semisimple_quotient(A, radical(A))
    f = A.field
    rows = [A.dense({i: f.one()}) for i in range(A.dim)]
    M = ModuleRep(quot, np.array(rows))
    e = truncation_idempotent(A, p)
    C = corner_algebra(A, e)
    T = truncate_module(M, e)
    assert T.dim == len(rank_profile(A.right_matrix(e), f))


def test_functor_grading_bmw13():
    p = generic(1)
    A = build_algebra(3, p)
    e = truncation_idempotent(A, p)
    C = corner_algebra(A, e)
    rep = wedderburn(A, radical(A))
    fr = functor_grading_check(C, simple_modules(A, rep), e)
    assert fr.annihilated == 3
    assert fr.survivors == [(1, True)]
    assert fr.corner_blocks == [1]


@pytest.mark.parametrize("params,want", [
    (lambda: generic(2), (10, [(1, True), (1, True)], [1, 1])),
    (lambda: ParameterSet(QQ, 2, "1/3", [3], admissible=True), (3, [(1, True)], [1])),
], ids=["gf101_b23", "q_b13"])
def test_functor_grading_b_n3(params, want):
    p = params()
    A = build_algebra(3, p)
    e = truncation_idempotent(A, p)
    rep = wedderburn(A, radical(A))
    fr = functor_grading_check(corner_algebra(A, e), simple_modules(A, rep), e)
    assert (fr.annihilated, fr.survivors, fr.corner_blocks) == want


def test_empty_module_acts_by_empty_matrices():
    from cycbmw.repn import ModuleRep
    A = build_algebra(3, generic(1))
    rep = wedderburn(A, radical(A))
    quot = rep._quotient
    Z = ModuleRep(quot, np.zeros((0, quot.S.dim), dtype=dtype_for(A.field.p)))
    assert Z.dim == 0 and Z.action_matrix(A.gens["g1"]).tolist() == []
    for M in simple_modules(A, rep):
        T = truncate_module(M, {})
        assert T.dim == 0
        assert (T.action_matrix(A.unit()).tolist() == []
                and T.action_matrix(A.gens["e1"]).tolist() == [])
        assert truncate_module(T, A.unit()).dim == 0


@pytest.mark.parametrize("field", [F101, GF(2**61 - 1), QQ], ids=["p101", "p2^61-1", "Q"])
def test_row_sets_are_2d_arrays_of_the_field_dtype(field):
    """Row sets stay arrays in dtype_for(p) from linalg through repn, with
    shape (0, columns) when they are empty; elements are 1-D arrays of
    length dim in the same dtype."""
    want = dtype_for(field.p)

    def check(rows, shape):
        assert isinstance(rows, np.ndarray) and rows.dtype == want and rows.shape == shape

    def elements(A, xs):
        assert xs
        for x in xs:
            check(x, (A.dim,))

    one, zero = field.one(), field.zero()
    check(nullspace([[one, zero, zero]], 3, field), (2, 3))
    check(nullspace([[one, zero], [zero, one]], 2, field), (0, 2))
    check(RowBasis([[one, zero, zero]], field).coords([[one, zero, zero]] * 2), (2, 1))
    check(RowBasis([], field).coords([[zero] * 3] * 2), (2, 0))
    for A, rad_dim in ((dual_numbers(field), 1), (matrix_algebra(field, 2), 0)):
        v = A.dense(A.unit())
        assert A.dense(v) is v
        rad = radical(A)
        check(rad, (rad_dim, A.dim))
        S = semisimple_quotient(A, rad).S
        check(center(S), (1, S.dim))
        check(ideal_generated_by(A, {})[1], (0, A.dim))
        check(ideal_generated_by(A, A.unit())[1], (A.dim, A.dim))
        rep = wedderburn(A, rad)
        for M in simple_modules(A, rep):
            check(M.rows, (M.dim, S.dim))
            check(M.action_matrix(A.unit()), (M.dim, M.dim))
            check(truncate_module(M, {}).rows, (0, S.dim))
        elements(A, [A.unit(), A.mul(A.unit(), {0: one}), *A.gens.values(), *A.multipliers()])
        elements(S, [S.unit(), *S.gens.values(), *central_primitive_idempotents(S, center(S)),
                     *rep._central_idempotents, *(info.idempotent for info in rep.block_info)])
        R = S.right_matrix(S.unit())
        e, _ = repn.primitive_idempotent(S, S.unit(), R[rank_profile(R, field)])
        elements(S, [e])
    # the unit splits along E11 in M_2: (E11, E22)
    A = matrix_algebra(field, 2)
    parts = repn._split(A, A.gens["E11"], A.unit())
    assert len(parts) == 2
    elements(A, parts)
    # the word-born elements, and a corner's, which has no generators
    B = build_algebra(3, _generic_over(field, 1))
    e = truncation_idempotent(B, B.params)
    elements(B, [e, B.nf_word(bytes((0, 1))), B.nf_element({b"\x02": one}), B.star(e),
                 *B.gens.values()])
    C = corner_algebra(B, e)
    elements(C, [C.unit(), *C.multipliers()])


def test_nilpotent_ideal_certificate_rejects():
    A = build_algebra(2, generic(1))
    with pytest.raises(repn.AnalysisError, match="not an ideal"):
        repn._certify_nilpotent_ideal(A, [A.dense(A.gens["g1"]).tolist()])
    for B in (A, dual_numbers(QQ), matrix_algebra(F101, 2)):
        identity = [B.dense({i: B.field.one()}).tolist() for i in range(B.dim)]
        with pytest.raises(repn.AnalysisError, match="not nilpotent"):
            repn._certify_nilpotent_ideal(B, identity)
    # the radical itself passes
    D = dual_numbers(F101)
    repn._certify_nilpotent_ideal(D, [D.dense({1: 1}).tolist()])


def test_nilpotent_ideal_certificate_checks_every_squaring_round():
    # F x F[t]/(t^2) with basis e, f, t (unit e + f): I = <e, t> is an ideal
    # whose square <e> is smaller, but <e>^2 = <e> does not fall
    for field in (F101, QQ):
        one = field.one()
        table = {(i, j): () for i in range(3) for j in range(3)}
        table.update({(0, 0): ((0, one),), (1, 1): ((1, one),), (1, 2): ((2, one),),
                      (2, 1): ((2, one),)})
        A = StructureAlgebra.from_table(field, table, 3, {0: one, 1: one})
        with pytest.raises(repn.AnalysisError, match="not nilpotent"):
            repn._certify_nilpotent_ideal(A, [[one, 0, 0], [0, 0, one]])
        repn._certify_nilpotent_ideal(A, [[0, 0, one]])


def test_functor_ariki_koike_all_annihilated():
    p = generic(1)
    A = build_algebra(3, p, variant="ariki_koike")
    # e_i = 0, so the truncation idempotent is 0 and kills every simple
    e = truncation_idempotent(A, p)
    assert not e.any()
    # the zero idempotent has no corner algebra: eAe = 0 has no unit
    with pytest.raises(BuildError, match="nonzero idempotent"):
        corner_algebra(A, e)
    rep = wedderburn(A, radical(A))
    mods = simple_modules(A, rep)
    for M in mods:
        assert truncate_module(M, e).dim == 0


def _generic_over(field, r):
    q = field(2)
    u = [(q * q) ** (1 + 4 * i) for i in range(r)]
    prod = field(1)
    for x in u:
        prod = prod * x
    alpha = field(1) if r % 2 else q.inv()
    return ParameterSet(field, q, (alpha * prod).inv(), u, admissible=True)


MULT_CASES = {
    "q_b13": lambda: build_algebra(3, ParameterSet(QQ, 2, "1/3", [3], admissible=True)),
    "gf101_b22": lambda: build_algebra(2, generic(2)),
    "gf2p61_b32": lambda: build_algebra(2, _generic_over(GF(2**61 - 1), 3)),
    # the largest int64 prime: a product of two residues times a third overflows
    "gf3037000493_b22": lambda: build_algebra(2, _generic_over(GF(3037000493), 2)),
    # _gather reduces once below len(sel) (p-1)^(factors+1) < 2^63, per factor above
    "gf65521_b22": lambda: build_algebra(2, _generic_over(GF(65521), 2)),
    "gf2p31_b22": lambda: build_algebra(2, _generic_over(GF(2**31 - 1), 2)),
}


def _table_product(A, a, b):
    """sum a_i b_j (b_i b_j) straight from the product table."""
    f = A.field
    out = [f.zero()] * A.dim
    for i, ci in a.items():
        for j, cj in b.items():
            for k, c in A.product(i, j):
                out[k] = f.add(out[k], f.mul(f.mul(ci, cj), c))
    return out


@pytest.mark.parametrize("case", sorted(MULT_CASES))
def test_multiplication_matches_product_table(case):
    A = MULT_CASES[case]()
    f = A.field
    one = f.one()
    basis = [{i: one} for i in range(A.dim)]
    for j in range(A.dim):
        R, L = A.right_matrix(basis[j]).tolist(), A.left_matrix(basis[j]).tolist()
        for i in range(A.dim):
            want = A.dense(dict(A.product(i, j))).tolist()
            assert R[i] == want and A.mul(basis[i], basis[j]).tolist() == want
            assert L[i] == A.dense(dict(A.product(j, i))).tolist()
    rng = random.Random(13)

    def element():
        out = {}
        for k in rng.sample(range(A.dim), rng.randrange(1, 6)):
            c = (Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) if f == QQ
                 else rng.randrange(f.p))
            if c:
                out[k] = c
        return out
    for _ in range(10):
        a, x = element(), element()
        assert A.mul(a, x).tolist() == _table_product(A, a, x)
        assert A.right_matrix(x).tolist() == [_table_product(A, b, x) for b in basis]
        assert A.left_matrix(a).tolist() == [_table_product(A, a, b) for b in basis]


def _pairs(v):
    """The (index, value) pairs of v's nonzero entries, as Python scalars."""
    nz = np.flatnonzero(v)
    return list(zip(nz.tolist(), v[nz].tolist()))


def _analysis_digest():
    """sha256 over the radical rows, central and primitive idempotents and
    simple-module rows of GF(101) semi B(2,3) and Q B(1,3).  The pinned
    value was recorded with the per-entry quotient and the Horner split;
    the factor order (sympy's key over Q and over GF(p)) fixes the order of
    the idempotents."""
    h = hashlib.sha256()
    for A in (build_algebra(3, semi_parameters()),
              build_algebra(3, ParameterSet(QQ, 2, 1, [1], admissible=True))):
        rad = radical(A)
        rep = wedderburn(A, rad)
        payload = [rad.tolist(), [_pairs(eps) for eps in rep._central_idempotents],
                   [_pairs(info.idempotent) for info in rep.block_info],
                   [M.rows.tolist() for M in simple_modules(A, rep)]]
        h.update(repr(payload).encode())
    return h.hexdigest()


def test_analysis_outputs_are_pinned():
    assert _analysis_digest() == (
        "4e3f8f266395949ba4893b1eb6c5a9a4eeb48d81f2df9d230bf0e523db74ea95")


def test_gather_is_exact_on_both_sides_of_the_one_reduction_bound():
    # GF(65521)[x]/(x^2 + 1): n copies of the product x x = (p-1) 1, both
    # operands p - 1, summed into one slot; n (p-1)^3 fits in int64 at the
    # bound and not one term above it
    F = GF(65521)
    m, one = F.p, F.one()
    A = StructureAlgebra.from_table(F, {(0, 0): ((0, one),), (0, 1): ((1, one),),
                                        (1, 0): ((1, one),), (1, 1): ((0, m - 1),)},
                                    2, {0: one})
    I, J, _, C, _ = A.structure_constants()
    top = np.flatnonzero(C == m - 1)
    v = np.full(A.dim, m - 1, dtype=np.int64)
    limit = (2**63 - 1) // (m - 1) ** 3
    for n in (limit, limit + 1):
        sel = np.resize(top, n)
        got = A._gather(sel, [(v, I[sel]), (v, J[sel])], np.zeros(n, dtype=np.int64), 1)
        assert got.tolist() == [n * (m - 1) ** 3 % m]


def _central_idempotents_every_round(S, center_rows):
    """The center split without its stop: eps z eps split in every round
    over Z's basis; the oracle for central_primitive_idempotents."""
    f, m = S.field, S.field.p
    if not center_rows:
        return []
    Zm = as_array(center_rows, m)
    Z = StructureAlgebra.from_rows(S, Zm, S.unit())
    idems = [Z.unit()]
    for b in range(Z.dim):
        z = {b: f.one()}
        idems = [part for eps in idems
                 for part in repn._split(Z, Z.mul(Z.mul(eps, z), eps), eps) or [eps]]
    return [matmul_mod(eps, Zm, m) for eps in idems]


CENTRAL_CASES = {
    "gf101_semi_b23": lambda: build_algebra(3, semi_parameters()),
    "q_b13": lambda: build_algebra(3, ParameterSet(QQ, 2, 1, [1], admissible=True)),
    "s3_gf3": lambda: group_algebra_s3(GF(3)),
    "gf4_over_gf2": gf4_over_gf2,
    "gf2p61_b32": lambda: build_algebra(2, _generic_over(GF(2**61 - 1), 3)),
}


@pytest.mark.parametrize("case", sorted(CENTRAL_CASES))
def test_central_idempotents_stop_early_and_sandwich_is_right_matrix(case):
    A = CENTRAL_CASES[case]()
    S = semisimple_quotient(A, radical(A)).S
    cen = center(S)
    idems = central_primitive_idempotents(S, cen)
    assert [eps.tolist() for eps in idems] == [
        eps.tolist() for eps in _central_idempotents_every_round(S, cen.tolist())]
    for eps in idems:
        assert np.array_equal(S.mul(eps, eps), eps)
        assert S.sandwich(eps).tolist() == S.right_matrix(eps).tolist()


def test_wedderburn_refuses_a_central_non_idempotent(monkeypatch):
    A = group_algebra_s3(F101)
    central = repn.central_primitive_idempotents
    # 2 eps is central, and (2 eps)^2 = 4 eps
    monkeypatch.setattr(repn, "central_primitive_idempotents", lambda S, cen: [
        reduce_mod(2 * eps, S.field.p) for eps in central(S, cen)])
    with pytest.raises(repn.AnalysisError, match="fails e\\^2 = e"):
        wedderburn(A, radical(A))


# -- the p-power rounds against the pairwise Gram ------------------------------------

def _g(M, p, i):
    """g_i from an integer lift M: p^{-i} tr(M^{p^i}) mod p."""
    mod = p ** (i + 1)
    tr = repn._power_trace_mod(M.astype(dtype_for(mod)), p**i, mod)
    assert tr % p**i == 0
    return (tr // p**i) % p


def _pairwise_ideals(A):
    """[I_0, I_1, ...]: the trace-form kernel refined one round per i with
    p^i <= dim by the Gram matrix g_i(b_s b_t) over every pair of rows of
    I_{i-1}, each entry a binary power of the product of two lifted right
    matrices.  The last ideal is the oracle for `radical`."""
    f, p = A.field, A.field.p
    ideals = [nullspace(A.form(A.traces()), A.dim, f).tolist()]
    i = 1
    while p**i <= A.dim and ideals[-1]:
        basis, mod = ideals[-1], p ** (i + 1)
        lifts = [A.right_matrix(v).astype(dtype_for(mod)) for v in as_array(basis, p)]
        gram = [[_g(matmul_mod(Ms, Mt, mod), p, i) for Mt in lifts] for Ms in lifts]
        coords = nullspace(gram, len(basis), f).tolist()
        ideals.append(matmul_mod(as_array(coords, p), as_array(basis, p), p).tolist()
                      if coords else [])
        i += 1
    return ideals


# dims of I_0, I_1, ...: every case takes at least one p-power round
ROUND_CASES = {
    "m2_gf2": (lambda: matrix_algebra(GF(2), 2), [4, 0]),
    "s3_gf2": (lambda: group_algebra_s3(GF(2)), [6, 1, 1]),
    "s3_gf3": (lambda: group_algebra_s3(GF(3)), [6, 4]),
    "dual_gf2": (lambda: dual_numbers(GF(2)), [2, 1]),
    "gf5_b13": (lambda: build_algebra(3, _generic_over(GF(5), 1)), [13, 9]),
    "gf7_b13": (lambda: build_algebra(3, _generic_over(GF(7), 1)), [4, 4]),
}


@pytest.mark.parametrize("case", sorted(ROUND_CASES))
def test_radical_matches_pairwise_gram(case):
    make, dims = ROUND_CASES[case]
    A = make()
    ideals = _pairwise_ideals(A)
    assert [len(ideal) for ideal in ideals] == dims
    assert radical(A).tolist() == ideals[-1]


@pytest.mark.parametrize("case", sorted(ROUND_CASES))
def test_p_power_functional_is_linear_and_read_on_the_ideal(case):
    A = ROUND_CASES[case][0]()
    f, p = A.field, A.field.p
    rng = random.Random(29)
    # every ideal but the last is nonzero and took a round
    for i, basis in enumerate(_pairwise_ideals(A)[:-1], start=1):
        span = EchelonSpan(f, A.dim, basis)
        Y, P = span.rows, span.pivots

        def regular(x):
            return _g(A.right_matrix(x), p, i)

        def on_ideal(x):
            return _g(matmul_mod(Y, A.right_matrix(x), p)[:, P], p, i)
        for _ in range(8):
            x, y = (matmul_mod(as_array([rng.randrange(p) for _ in Y], p), Y, p)
                    for _ in range(2))
            c = rng.randrange(p)
            assert on_ideal(x) == regular(x)
            assert regular((x + y) % p) == (regular(x) + regular(y)) % p
            assert regular(c * x % p) == c * regular(x) % p


# -- small e: the Kleshchev condition bites --------------------------------------------

# (p, r, n, radical dim, blocks) for q = 2, u_i = 4^{1+4i}; GF(5) B(1,4)
# has e = 2 and 4 blocks, where p = 101 gives 8
SMALL_E = [(5, 1, 2, 1, 2), (5, 1, 3, 9, 3), (7, 2, 2, 8, 4), (7, 3, 2, 20, 7),
           (11, 3, 2, 16, 8), (13, 3, 2, 8, 10), (19, 2, 2, 3, 6), (23, 3, 2, 5, 10),
           (5, 1, 4, 63, 4), (7, 2, 3, 53, 8), (11, 2, 3, 72, 10)]


@pytest.mark.parametrize("p,r,n,rad_dim,count", SMALL_E,
                         ids=[f"gf{p}_b{r}{n}" for p, r, n, _, _ in SMALL_E])
def test_small_e_ladder_matches_classification(p, r, n, rad_dim, count):
    params = _generic_over(GF(p), r)
    A = build_algebra(n, params)
    rad = radical(A)
    rep = wedderburn(A, rad)
    assert len(rad) == rad_dim
    assert rep.split
    assert len(rep.blocks) == count == len(
        classify_cyclotomic(params, Multicharge.from_parameters(params), n))


# -- every omega vanishes: f = n/2 drops out for even n ---------------------------------

# (n, dim, radical dim, blocks, classified pairs by f) for omega_zero_parameters()
OMEGA_ZERO = [(2, 3, 1, [1, 1], {0: 2}), (3, 15, 0, [3, 2, 1, 1], {0: 3, 1: 1}),
              (4, 105, 36, [6, 3, 3, 3, 2, 1, 1], {0: 5, 1: 2})]


@pytest.mark.parametrize("n,dim,rad_dim,blocks,by_f", OMEGA_ZERO,
                         ids=[f"b1{n}" for n, *_ in OMEGA_ZERO])
def test_omega_zero_blocks_match_the_contraction_range(n, dim, rad_dim, blocks, by_f):
    p = omega_zero_parameters()
    A = build_algebra(n, p)
    rad = radical(A)
    rep = wedderburn(A, rad)
    assert A.dim == dim and len(rad) == rad_dim and rep.split
    assert sorted(rep.blocks, reverse=True) == blocks
    pairs = classify_cyclotomic(p, Multicharge.from_parameters(p), n)
    assert collections.Counter(pair.f for pair in pairs) == by_f
    assert len(rep.blocks) == len(pairs) == simple_count(p, n)
    assert (n // 2 in by_f) == (n % 2 == 1)
