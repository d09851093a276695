"""Exact dense linear algebra over GF(p) and Q on numpy arrays.

Every matrix is a numpy array whose dtype follows one rule, `dtype_for`:
int64 when residues modulo m can be multiplied and one more residue added
without overflow, object (Python int or Fraction) otherwise, including Q
(m = 0).  Over GF(p) every result is reduced with `% p`; over Q nothing is
reduced, and every array a function returns holds reduced Fractions.
Products go through `matmul_mod`, which splits int64 products along the
inner dimension so that no partial sum overflows, and over Q multiplies
integer numerators over one common denominator per operand
(`fraction_free`), making one Fraction per result entry.  Row spaces go
through one batched kernel, `echelon`: the reduced echelon form of a whole
matrix, unique and so deterministic.  It backs `EchelonSpan`, `RowBasis`,
`nullspace` and the row rank profile (`rank_profile`); only
`EchelonSpan.insert` grows a span one row at a time.

Every function returns arrays, a row set one 2-D array also when it has no
rows; the entry points coerce their input once (`as_array`), lists too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .fields import Field


def dtype_for(m: int):
    """int64 when (m-1)^2 + m < 2^63, i.e. m <= 3,037,000,500; object for
    larger moduli and for Q (m = 0)."""
    return np.int64 if 0 < m and (m - 1) ** 2 + m < 2**63 else object


def reduce_mod(a, m: int):
    """a % m over Z/m; a itself over Q (m = 0)."""
    return a % m if m else a


def zeros(shape, m: int) -> np.ndarray:
    """Zero array modulo m; over Q its entries are Fraction(0)."""
    if dtype_for(m) is np.int64:
        return np.zeros(shape, dtype=np.int64)
    return np.full(shape, 0 if m else Fraction(0), dtype=object)


def as_array(rows, m: int) -> np.ndarray:
    """Rows (nested lists or arrays of raw values) as a reduced array mod m."""
    return reduce_mod(np.array(rows, dtype=dtype_for(m)), m)


def fraction_free(a: np.ndarray):
    """(N, d): the rationals of a as an object array N of integer numerators
    over one common denominator d, the lcm of their denominators."""
    d = math.lcm(*(x.denominator for x in a.flat))
    N = np.array([x.numerator * (d // x.denominator) for x in a.flat], dtype=object)
    return N.reshape(a.shape), d


def from_fraction_free(N: np.ndarray, d: int) -> np.ndarray:
    """The array of reduced Fractions N / d, one gcd per nonzero entry."""
    zero = Fraction(0)
    return np.array([Fraction(x, d) if x else zero for x in N.flat],
                    dtype=object).reshape(N.shape)


def matmul_mod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """a @ b reduced mod m; a may be a vector.  In int64 the inner dimension
    is split so that no partial sum overflows:
    acc + chunk*(m-1)^2 <= m - 1 + (2^63 - m) < 2^63.  Over Q the integer
    numerators of a and b are multiplied and each entry divided by the
    product of the two common denominators once."""
    if not m:
        (na, da), (nb, db) = fraction_free(a), fraction_free(b)
        return from_fraction_free(na @ nb, da * db)
    if dtype_for(m) is object:
        return reduce_mod(a @ b, m)
    chunk = max(1, (2**63 - m) // (m - 1) ** 2)
    acc = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for s in range(0, a.shape[-1], chunk):
        acc = (acc + a[..., s:s + chunk] @ b[s:s + chunk]) % m
    return acc


def scatter_add(index, values, size: int, m: int) -> np.ndarray:
    """Vector of length `size` holding the sum of `values` at each `index`,
    reduced mod m.  The values need not be reduced: the caller bounds their
    total below 2^63, so that no int64 sum overflows."""
    out = zeros(size, m)
    np.add.at(out, index, values)
    return reduce_mod(out, m)


def runs(start: np.ndarray, rows: np.ndarray):
    """(positions, lengths): the runs start[r]:start[r+1] of every r in
    `rows`, concatenated, and the length of each run."""
    lo, n = start[rows], start[rows + 1] - start[rows]
    # position t of row r's run is lo[r] + t: offsets within the
    # concatenated runs, shifted by each run's start
    return np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n), n


def sum_by_key(keys: np.ndarray, terms: np.ndarray, m: int):
    """(keys, sums): the distinct keys in ascending order and the sum of the
    terms at each, reduced mod m, the keys whose sum is 0 dropped: one sort
    and one `reduceat`.  The caller bounds each sum below 2^63."""
    order = np.argsort(keys)
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    first = new.nonzero()[0]
    sums = reduce_mod(np.add.reduceat(terms[order], first), m)
    nz = sums.nonzero()[0]
    return keys[first[nz]], sums[nz]


def sparse_times(rows, cols, vals, csr, width: int, m: int):
    """The sparse matrix with the entries `vals` at (rows, cols), rows in
    ascending order, times the matrix csr = (start, bcols, bvals), whose
    row r holds bvals[t] at column bcols[t] < width for t in
    start[r]:start[r+1]: the product's nonzero entries as (rows, cols,
    vals) in (row, column) order.  One gather and one sum: entry (i, j, c)
    meets row j, and the terms with equal (i, k) are added
    (`sum_by_key`).  Over GF(p) each term is reduced before the sum; over
    Q (m = 0) the values are integer numerators, and so are the sums: the
    caller keeps the denominators."""
    start, bcols, bvals = csr
    pos, n = runs(start, cols)
    keys, sums = sum_by_key(np.repeat(rows, n) * width + bcols[pos],
                            reduce_mod(np.repeat(vals, n) * bvals[pos], m), m)
    return keys // width, keys % width, sums


def _scalar(x):
    """A numpy scalar as the Python value the field kernels expect."""
    return x.item() if isinstance(x, np.generic) else x


def echelon(a: np.ndarray, m: int) -> Tuple[np.ndarray, List[int]]:
    """(E, pivots): the reduced echelon form of the 2-D array a without its
    zero rows, and its pivot columns; a is not modified.  One vectorised
    step per pivot column j updates all rows.  Over GF(p) the pivot row is
    scaled to 1 and subtracted from the rows nonzero at j; no int64 term
    exceeds (m-1)^2.  Over Q the integer numerators are eliminated
    fraction-free (Nakos, Turner & Williams 1997): with d the previous
    pivot and v the new one, each other row x becomes (v x - x[j] pivot
    row) / d, an exact division; E is the rows over the last pivot."""
    a = a.copy() if m else fraction_free(a)[0]
    d, pivots, j = 1, [], 0
    while len(pivots) < len(a):
        r = len(pivots)
        # the next pivot column: the first one nonzero in a row from r on
        cols = np.flatnonzero((a[r:, j:] != 0).any(axis=0))
        if not len(cols):
            break
        j += int(cols[0])
        s = r + int(np.flatnonzero(a[r:, j])[0])
        a[[r, s]] = a[[s, r]]
        if m:
            a[r] = a[r] * pow(_scalar(a[r, j]), -1, m) % m
            rows = np.flatnonzero(a[:, j])
            rows = rows[rows != r]
            a[rows] = (a[rows] - np.outer(a[rows, j], a[r])) % m
        else:
            row, v = a[r].copy(), a[r, j]
            a = (v * a - np.outer(a[:, j], row)) // d
            a[r], d = row, v
        pivots.append(j)
        j += 1
    E = a[:len(pivots)]
    return (E if m else from_fraction_free(E, d)), pivots


def rank_profile(rows: np.ndarray, field: Field) -> List[int]:
    """Indices of the rows independent of the rows before them: the pivot
    columns of the transpose, whose column i lies outside the span of the
    columns before it exactly when row i does."""
    return echelon(as_array(rows, field.p).T, field.p)[1]


class EchelonSpan:
    """Row space in reduced echelon form: `rows`, a 2-D array sorted by
    pivot, and `pivots`.  Built whole by `echelon`; `insert` adds one row,
    for the callers that grow a span until its first dependent row (the
    Krylov loop of `repn._split`, the semi-admissibility degree)."""

    def __init__(self, field: Field, ncols: int, rows=()):
        self.field = field
        self.rows, self.pivots = echelon(
            as_array(rows, field.p).reshape(len(rows), ncols), field.p)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v) -> np.ndarray:
        """Residual of v modulo the span, as a new array: v - v[pivots].rows,
        zero at every pivot; a matrix v is reduced row by row."""
        return self.residual(as_array(v, self.field.p), slice(None))

    def residual(self, v: np.ndarray, cols) -> np.ndarray:
        """Columns `cols` of the residual of v, a reduced array, modulo the
        span: v[..., cols] - v[..., pivots].rows[:, cols], as a new array, v
        neither coerced nor copied first.  Over Q it is
        (N_v[..., cols] d_r - N_v[..., pivots] N_r) / (d_v d_r) on the
        integer numerators."""
        m = self.field.p
        rows = self.rows[:, cols]
        if not m:
            (nv, dv), (nr, dr) = fraction_free(v), fraction_free(rows)
            return from_fraction_free(nv[..., cols] * dr - nv[..., self.pivots] @ nr, dv * dr)
        return reduce_mod(v[..., cols] - matmul_mod(v[..., self.pivots], rows, m), m)

    def insert(self, v) -> bool:
        """Add v to the span; True if the dimension grew."""
        v = self.reduce(v)
        nz = np.flatnonzero(v)
        if len(nz) == 0:
            return False
        m = self.field.p
        pc = int(nz[0])
        v = reduce_mod(v * self.field.inv(_scalar(v[pc])), m)
        hit = np.flatnonzero(self.rows[:, pc])
        self.rows[hit] = reduce_mod(self.rows[hit] - np.outer(self.rows[hit, pc], v), m)
        at = int(np.searchsorted(self.pivots, pc))
        self.rows = np.insert(self.rows, at, v, axis=0)
        self.pivots.insert(at, pc)
        return True


class RowBasis:
    """A fixed independent row list with exact coordinate solving.

    The echelon form of the augmented rows [rows | I] is [E | T] with all
    its pivots P in the first n columns, E the reduced echelon form of
    rows and T.rows = E.  A vector v lies in the span exactly when
    v = v[P].E, and then x = v[P].T solves x.rows = v."""

    def __init__(self, rows, field: Field):
        self.field = field
        m = field.p
        k, n = len(rows), len(rows[0]) if len(rows) else 0
        aug = np.hstack([as_array(rows, m).reshape(k, n), zeros((k, k), m)])
        aug[np.arange(k), n + np.arange(k)] = field.one()
        echelon_rows, self._pivots = echelon(aug, m)
        if any(pc >= n for pc in self._pivots):
            raise ValueError("RowBasis rows are linearly dependent")
        self._echelon, self._transform = echelon_rows[:, :n], echelon_rows[:, n:]

    def coords(self, v) -> Optional[np.ndarray]:
        """x with x.rows = v, or None when v is outside the span.  v is one
        vector, or a matrix with one vector per row; then x is a matrix with
        one row per row of v, and None means some row is outside the span."""
        m = self.field.p
        v = as_array(v, m)
        y = v[..., self._pivots]
        back = matmul_mod(y, self._echelon, m) if self._pivots else zeros(v.shape, m)
        if not np.array_equal(back, v):
            return None
        return matmul_mod(y, self._transform, m)


def nullspace(rows, ncols: int, field: Field) -> np.ndarray:
    """Canonical solution basis of the homogeneous system given by `rows`.

    Each row r is one equation sum_j r[j] x_j = 0; solutions x have length
    ncols (= width of every row).  The basis is the standard RREF one:
    each free column contributes the vector with 1 there and the negated
    pivot-row entries at the pivot coordinates.
    """
    m = field.p
    red, piv = echelon(as_array(rows, m).reshape(len(rows), ncols), m)
    free = np.setdiff1d(np.arange(ncols), piv)
    basis = zeros((len(free), ncols), m)
    basis[np.arange(len(free)), free] = field.one()
    if piv:
        basis[:, piv] = reduce_mod(-red[:, free].T, m)
    return basis

