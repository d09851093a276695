import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF as SymGF, QQ as SymQQ
from sympy.polys.matrices import DomainMatrix

from cycbmw.fields import GF, QQ
from cycbmw.linalg import (EchelonSpan, RowBasis, as_array, dtype_for, echelon, fraction_free,
                           from_fraction_free, matmul_mod, nullspace, rank_profile)


def _matmul(A, B, field):
    """matmul_mod on nested lists, as nested lists."""
    m = field.p
    return matmul_mod(as_array(A, m), as_array(B, m), m).tolist()


def test_matmul_no_int64_overflow_near_2_31():
    p = 2**31 - 1
    F = GF(p)
    assert _matmul([[p - 1] * 4], [[p - 1]] * 4, F) == [[4]]
    rng = random.Random(31)
    A = [[rng.randrange(p) for _ in range(9)] for _ in range(3)]
    B = [[rng.randrange(p) for _ in range(2)] for _ in range(9)]
    want = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]
    assert _matmul(A, B, F) == want


# -- differential tests against sympy's DomainMatrix ---------------------------

# Q, a small prime, 2^31 - 1, the two primes on either side of the
# int64/object boundary (3,037,000,500), 2^61 - 1 and 2^63 - 25
FIELDS = [QQ, GF(101), GF(2**31 - 1), GF(3037000493), GF(3037000507),
          GF(2**61 - 1), GF(2**63 - 25)]
IDS = ["Q", "p101", "p2^31-1", "p3037000493", "p3037000507", "p2^61-1", "p2^63-25"]


def test_dtype_boundary():
    assert dtype_for(3037000493) is np.int64
    assert dtype_for(3037000507) is object
    assert dtype_for(0) is object


def _domain(field):
    return SymQQ if field == QQ else SymGF(field.p)


def _to_sympy(rows, ncols, field):
    K = _domain(field)
    conv = (lambda c: K(c.numerator, c.denominator)) if field == QQ else K
    return DomainMatrix([[conv(c) for c in row] for row in rows], (len(rows), ncols), K)


def _from_sympy(M, field):
    if field == QQ:
        conv = lambda c: Fraction(int(c.numerator), int(c.denominator))
    else:
        conv = lambda c: int(c) % field.p
    return [[conv(c) for c in row] for row in M.to_list()]


def _random_matrix(rng, field, nrows, ncols, rank_at_most=None):
    """Seeded random matrix; a product through rank_at_most columns when set,
    so that it is rank-deficient."""
    def scalar():
        if field == QQ:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        return rng.randrange(field.p)
    if rank_at_most is None:
        return [[scalar() for _ in range(ncols)] for _ in range(nrows)]
    L = [[scalar() for _ in range(rank_at_most)] for _ in range(nrows)]
    R = [[scalar() for _ in range(ncols)] for _ in range(rank_at_most)]
    return _from_sympy(_to_sympy(L, rank_at_most, field) * _to_sympy(R, ncols, field), field)


def _cases(field, seed):
    rng = random.Random(seed)
    out = []
    for nrows, ncols, r in ((5, 7, None), (7, 5, None), (6, 6, 3), (8, 9, 4),
                            (4, 4, 1), (3, 6, None)):
        out.append(_random_matrix(rng, field, nrows, ncols, r))
    # zero rows, a zero column and a repeated row
    M = _random_matrix(rng, field, 4, 5)
    for row in M:
        row[2] = field.zero()
    out.append(M + [list(M[0]), [field.zero()] * 5])
    return out


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_rref_rank_nullspace_match_sympy(field):
    for M in _cases(field, 5):
        ncols = len(M[0])
        S = _to_sympy(M, ncols, field)
        red, piv = S.rref()
        want_rows = [row for row in _from_sympy(red, field) if any(row)]
        E, pivots = echelon(as_array(M, field.p), field.p)
        assert (E.tolist(), pivots) == (want_rows, list(piv))
        one_by_one = EchelonSpan(field, ncols)
        for row in M:
            one_by_one.insert(row)
        at_once = EchelonSpan(field, ncols, M)
        assert (at_once.rows.tolist(), at_once.pivots) == (one_by_one.rows.tolist(),
                                                           one_by_one.pivots)
        assert len(rank_profile(M, field)) == S.rank() == len(want_rows)
        if field == QQ:           # never an int, whose inverse would be a float
            assert all(type(c) is Fraction for row in want_rows for c in row)
            assert all(type(c) is Fraction for c in E.flat)
        # sympy scales its nullspace rows differently over GF(p): compare
        # spans, then the canonical shape (identity on the free columns)
        null = nullspace(M, ncols, field).tolist()
        free = [j for j in range(ncols) if j not in piv]
        assert len(null) == len(free)
        if null:
            ours = _to_sympy(null, ncols, field).rref()[0]
            theirs = S.nullspace().rref()[0]
            assert _from_sympy(ours, field) == _from_sympy(theirs, field)
            assert _from_sympy(_to_sympy(M, ncols, field) * _to_sympy(null, ncols, field).transpose(),
                               field) == [[field.zero()] * len(null)] * len(M)
        if field == QQ:
            assert all(type(c) is Fraction for row in null for c in row)
        for t, row in enumerate(null):
            assert [row[j] for j in free] == [field.one() if u == t else field.zero()
                                              for u in range(len(free))]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_matmul_matches_sympy(field):
    rng = random.Random(7)
    for n, k, m in ((3, 4, 5), (6, 6, 6), (1, 9, 2), (7, 1, 3)):
        A = _random_matrix(rng, field, n, k)
        B = _random_matrix(rng, field, k, m)
        want = _from_sympy(_to_sympy(A, k, field) * _to_sympy(B, m, field), field)
        assert _matmul(A, B, field) == want
    # the largest residues everywhere: every product term is (p-1)^2
    if field != QQ:
        top = field.p - 1
        A, B = [[top] * 8] * 3, [[top] * 4] * 8
        assert _matmul(A, B, field) == [[8 % field.p] * 4] * 3


def _q_array(rows, shape):
    return np.array(rows, dtype=object).reshape(shape)


def _assert_q_matmul(A, B):
    """matmul_mod over Q against DomainMatrix over QQ; A may be 1-D."""
    got = matmul_mod(A, B, 0)
    assert got.shape == A.shape[:-1] + B.shape[1:] and got.dtype == object
    assert all(type(c) is Fraction for c in got.flat)
    k, m = B.shape
    want = _to_sympy(A.reshape(-1, k).tolist(), k, QQ) * _to_sympy(B.tolist(), m, QQ)
    assert got.reshape(-1, m).tolist() == _from_sympy(want, QQ)


def test_q_matmul_fraction_free_matches_sympy():
    rng = random.Random(70)
    big = [rng.randrange(2**69, 2**70) for _ in range(6)]
    coprime = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

    def draw(kind):
        num = rng.randrange(-2**40, 2**40)
        if kind == "big":
            return Fraction(num, rng.choice(big))
        if kind == "coprime":
            return Fraction(num, rng.choice(coprime))
        # negative entries, Python ints mixed with Fractions
        num = rng.randrange(-9, 10)
        return rng.choice([num, Fraction(num, rng.randrange(1, 6))])

    for kind in ("big", "coprime", "mixed"):
        for n, k, m in ((3, 4, 5), (1, 6, 2), (5, 1, 3)):
            A = _q_array([draw(kind) for _ in range(n * k)], (n, k))
            B = _q_array([draw(kind) for _ in range(k * m)], (k, m))
            _assert_q_matmul(A, B)
            _assert_q_matmul(A[0], B)          # a 1-D left operand
    # the common denominator of pairwise coprime denominators is their product
    N, d = fraction_free(_q_array([Fraction(1, 7), Fraction(-2, 11), 3, Fraction(5, 13)], (2, 2)))
    assert d == 7 * 11 * 13 and N.tolist() == [[143, -182], [3003, 385]]
    assert from_fraction_free(N, d).tolist() == [[Fraction(1, 7), Fraction(-2, 11)],
                                                  [Fraction(3), Fraction(5, 13)]]
    # empty shapes: (0 x k)(k x m), (n x 0)(0 x m) and (n x k)(k x 0)
    for n, k, m in ((0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)):
        A = _q_array([Fraction(i + 1, 2) for i in range(n * k)], (n, k))
        B = _q_array([Fraction(-i, 3) for i in range(k * m)], (k, m))
        got = matmul_mod(A, B, 0)
        assert got.shape == (n, m)
        assert all(type(c) is Fraction and c == 0 for c in got.flat)
    got = matmul_mod(_q_array([], (0,)), _q_array([], (0, 2)), 0)
    assert got.tolist() == [0, 0] and all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_rowbasis_coords_match_sympy(field):
    rng = random.Random(11)
    for k, n in ((1, 4), (3, 6), (5, 5), (4, 9)):
        rows = _random_matrix(rng, field, k, n)
        S = _to_sympy(rows, n, field)
        assert S.rank() == k          # seeded draws are independent
        basis = RowBasis(rows, field)
        for _ in range(4):
            x = _random_matrix(rng, field, 1, k)
            v = _from_sympy(_to_sympy(x, k, field) * S, field)[0]
            assert basis.coords(v).tolist() == x[0]
        w = _random_matrix(rng, field, 1, n)
        inside = _to_sympy(rows + w, n, field).rank() == k
        assert (basis.coords(w[0]) is not None) == inside
    dependent = _random_matrix(rng, field, 4, 6, rank_at_most=2)
    with pytest.raises(ValueError):
        RowBasis(dependent, field)
    # no rows span only the zero vector
    empty = RowBasis([], field)
    assert empty.coords([field.zero()] * 3).tolist() == []
    assert empty.coords([field.zero(), field.one(), field.zero()]) is None


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_rowbasis_coords_of_a_matrix(field):
    rng = random.Random(12)
    k, n = 3, 7
    rows = _random_matrix(rng, field, k, n)
    basis = RowBasis(rows, field)
    X = _random_matrix(rng, field, 5, k)
    V = _from_sympy(_to_sympy(X, k, field) * _to_sympy(rows, n, field), field)
    assert basis.coords(V).tolist() == X
    # one row outside the span makes the whole answer None
    w = _random_matrix(rng, field, 1, n)
    assert _to_sympy(rows + w, n, field).rank() == k + 1
    assert basis.coords(V[:2] + w + V[2:]) is None
    # a residual modulo the span is taken row by row: zero but on w's row
    span = EchelonSpan(field, n, rows)
    W = V[:2] + w + V[2:]
    residual = span.reduce(W).tolist()
    assert residual == [span.reduce(row).tolist() for row in W]
    assert [any(row) for row in residual] == [False, False, True, False, False, False]
    # w minus its residual lies in the span, and the residual is zero at every pivot
    assert basis.coords([field.sub(a, b) for a, b in zip(w[0], residual[2])]) is not None
    assert not any(residual[2][j] for j in span.pivots)
    assert EchelonSpan(field, n).reduce(W).tolist() == W
    if field == QQ:
        assert all(type(c) is Fraction for row in residual for c in row)
    empty = RowBasis([], field)
    assert empty.coords(np.zeros((0, n), dtype=object)).tolist() == []
    assert empty.coords([[field.zero()] * n] * 2).tolist() == [[], []]
    assert empty.coords([[field.zero()] * n, [field.one()] + [field.zero()] * (n - 1)]) is None


# -- the batched echelon kernel ---------------------------------------------------

# GF(2), a small prime, the largest prime on the int64 path, 2^61 - 1 (object
# ints) and Q (fraction-free integer elimination)
KERNEL_FIELDS = [GF(2), GF(101), GF(3037000493), GF(2**61 - 1), QQ]
KERNEL_IDS = ["p2", "p101", "p3037000493", "p2^61-1", "Q"]


def _edge_shapes(field):
    rng = random.Random(17)
    wide = _random_matrix(rng, field, 3, 8)
    return {
        "0x5": ([], 5),
        "3x0": ([[], [], []], 0),
        "all-zero": ([[field.zero()] * 4] * 3, 4),
        "tall": (_random_matrix(rng, field, 9, 4), 4),
        "tall-rank-2": (_random_matrix(rng, field, 9, 5, rank_at_most=2), 5),
        "wide": (wide, 8),
        "repeated-rows": ([wide[1], wide[0], wide[1], wide[2], wide[0]], 8),
    }


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_echelon_matches_sympy_on_edge_shapes(field):
    m = field.p
    for name, (M, ncols) in _edge_shapes(field).items():
        red, piv = _to_sympy(M, ncols, field).rref()
        want = [row for row in _from_sympy(red, field) if any(row)]
        a = as_array(M, m).reshape(len(M), ncols)
        before = a.copy()
        E, pivots = echelon(a, m)
        assert np.array_equal(a, before), name          # the input is not modified
        assert E.shape == (len(want), ncols) and E.dtype == dtype_for(m), name
        assert (E.tolist(), pivots) == (want, list(piv)), name
        if field == QQ:
            assert all(type(c) is Fraction for c in E.flat), name
        span = EchelonSpan(field, ncols)
        assert rank_profile(a, field) == [i for i, row in enumerate(M) if span.insert(row)]


HYPOTHESIS_FIELDS = [GF(2), GF(7), GF(3037000493), GF(2**61 - 1), QQ]


@st.composite
def _row_lists(draw):
    """(field, ncols, rows): small entries, so that rows are often dependent,
    and some rows repeated."""
    field = draw(st.sampled_from(HYPOTHESIS_FIELDS))
    ncols = draw(st.integers(0, 6))
    if field == QQ:
        entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    else:
        entry = st.integers(-2, 2).map(field.of_int)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return field, ncols, rows


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_row_lists())
def test_whole_echelon_equals_sequential_inserts(case):
    field, ncols, rows = case
    one_by_one = EchelonSpan(field, ncols)
    grew = [i for i, row in enumerate(rows) if one_by_one.insert(row)]
    at_once = EchelonSpan(field, ncols, rows)
    assert at_once.rows.tolist() == one_by_one.rows.tolist()
    assert at_once.pivots == one_by_one.pivots
    # the row rank profile is exactly where a sequential insert grew the span
    a = as_array(rows, field.p).reshape(len(rows), ncols)
    assert rank_profile(a, field) == grew
