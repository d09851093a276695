"""Exact dense linear algebra over the two scalar backends.

Vectors are plain Python lists of raw field values.  Over GF(p) with
p < 2^31 the hot paths (row reduction, matrix products) run vectorized on
int64 numpy arrays with explicit mod-p reductions; over Q, or for huge p,
the same algorithms run on Fraction/int lists.  Everything is exact and
deterministic: pivots are always the first nonzero column, rows keep
insertion order semantics.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .fields import Field, PRIME_FIELD

_NUMPY_PRIME_LIMIT = 2**31


def _use_numpy(field: Field) -> bool:
    return field.kind == PRIME_FIELD and field.p < _NUMPY_PRIME_LIMIT


class EchelonSpan:
    """Growable row space kept in reduced echelon form."""

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list = []     # RREF rows (numpy int64 or list of raw)
        self.pivots: list[int] = []
        self._np = _use_numpy(field)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _as_vec(self, v):
        if self._np:
            return np.asarray(v, dtype=np.int64) % self.field.p
        return list(v)

    def reduce(self, v):
        """Residual of v modulo the current span (same storage format)."""
        v = self._as_vec(v)
        if self._np:
            p = self.field.p
            for row, pc in zip(self.rows, self.pivots):
                c = v[pc]
                if c:
                    v = (v - c * row) % p
            return v
        f = self.field
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if c:
                for j in range(self.ncols):
                    if row[j]:
                        v[j] = f.sub(v[j], f.mul(c, row[j]))
        return v

    def insert(self, v) -> bool:
        """Add v to the span; True if the dimension grew."""
        v = self.reduce(v)
        if self._np:
            nz = np.nonzero(v)[0]
            if len(nz) == 0:
                return False
            p = self.field.p
            pc = int(nz[0])
            v = (v * pow(int(v[pc]), -1, p)) % p
            for i, row in enumerate(self.rows):
                c = row[pc]
                if c:
                    self.rows[i] = (row - c * v) % p
        else:
            f = self.field
            pc = None
            for j in range(self.ncols):
                if v[j]:
                    pc = j
                    break
            if pc is None:
                return False
            inv = f.inv(v[pc])
            v = [f.mul(inv, x) for x in v]
            for i, row in enumerate(self.rows):
                c = row[pc]
                if c:
                    self.rows[i] = [f.sub(row[j], f.mul(c, v[j])) for j in range(self.ncols)]
        # keep rows sorted by pivot column for canonical output
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < pc:
            idx += 1
        self.rows.insert(idx, v)
        self.pivots.insert(idx, pc)
        return True

    def contains(self, v) -> bool:
        r = self.reduce(v)
        if self._np:
            return not np.any(r)
        return all(not x for x in r)

    def row_lists(self) -> List[list]:
        if self._np:
            return [[int(x) for x in row] for row in self.rows]
        return [list(row) for row in self.rows]


class RowBasis:
    """A fixed independent row list with exact coordinate solving."""

    def __init__(self, rows: List[list], field: Field):
        self.field = field
        self.rows = rows
        self.n = len(rows[0]) if rows else 0
        self.k = len(rows)
        self._np = _use_numpy(field)
        # RREF of [rows | I] restricted to the first n columns
        if self._np:
            p = field.p
            aug = np.hstack([
                np.asarray(rows, dtype=np.int64) % p,
                np.eye(self.k, dtype=np.int64),
            ]) if self.k else np.zeros((0, self.n + 0), dtype=np.int64)
            piv = []
            r = 0
            for col in range(self.n):
                if r >= self.k:
                    break
                nz = None
                for i in range(r, self.k):
                    if aug[i, col]:
                        nz = i
                        break
                if nz is None:
                    continue
                aug[[r, nz]] = aug[[nz, r]]
                aug[r] = (aug[r] * pow(int(aug[r, col]), -1, p)) % p
                for i in range(self.k):
                    if i != r and aug[i, col]:
                        aug[i] = (aug[i] - aug[i, col] * aug[r]) % p
                piv.append(col)
                r += 1
            if r != self.k:
                raise ValueError("RowBasis rows are linearly dependent")
            self._aug = aug
            self._pivots = piv
        else:
            f = field
            aug = [list(row) + [f.one() if i == j else f.zero() for j in range(self.k)]
                   for i, row in enumerate(rows)]
            piv = []
            r = 0
            for col in range(self.n):
                if r >= self.k:
                    break
                nz = None
                for i in range(r, self.k):
                    if aug[i][col]:
                        nz = i
                        break
                if nz is None:
                    continue
                aug[r], aug[nz] = aug[nz], aug[r]
                inv = f.inv(aug[r][col])
                aug[r] = [f.mul(inv, x) for x in aug[r]]
                for i in range(self.k):
                    c = aug[i][col]
                    if i != r and c:
                        aug[i] = [f.sub(aug[i][j], f.mul(c, aug[r][j]))
                                  for j in range(self.n + self.k)]
                piv.append(col)
                r += 1
            if r != self.k:
                raise ValueError("RowBasis rows are linearly dependent")
            self._aug = aug
            self._pivots = piv

    def coords(self, v) -> Optional[list]:
        """x with sum_i x_i * rows[i] = v, or None when v is outside the span."""
        f = self.field
        if self._np:
            p = f.p
            v = np.asarray(v, dtype=np.int64) % p
            x = np.zeros(self.k, dtype=np.int64)
            for r, pc in enumerate(self._pivots):
                c = v[pc]
                if c:
                    v = (v - c * self._aug[r, :self.n]) % p
                    x = (x + c * self._aug[r, self.n:]) % p
            if np.any(v):
                return None
            return [int(t) for t in x]
        v = list(v)
        x = [f.zero()] * self.k
        for r, pc in enumerate(self._pivots):
            c = v[pc]
            if c:
                row = self._aug[r]
                for j in range(self.n):
                    if row[j]:
                        v[j] = f.sub(v[j], f.mul(c, row[j]))
                for j in range(self.k):
                    if row[self.n + j]:
                        x[j] = f.add(x[j], f.mul(c, row[self.n + j]))
        if any(v):
            return None
        return x


def rref(rows: List[list], field: Field):
    """(reduced nonzero rows, pivot columns); input is not modified."""
    if not rows:
        return [], []
    span = EchelonSpan(field, len(rows[0]))
    for r in rows:
        span.insert(r)
    return span.row_lists(), list(span.pivots)


def rank(rows: List[list], field: Field) -> int:
    return len(rref(rows, field)[0])


def nullspace(rows: List[list], ncols: int, field: Field) -> List[list]:
    """Canonical solution basis of the homogeneous system given by `rows`.

    Each row r is one equation sum_j r[j] x_j = 0; solutions x have length
    ncols (= width of every row).  The basis is the standard RREF one:
    each free column contributes the vector with 1 there and the negated
    pivot-row entries at the pivot coordinates.
    """
    red, piv = rref(rows, field)
    f = field
    pivset = set(piv)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for fc in free:
        v = [f.zero()] * ncols
        v[fc] = f.one()
        for row, pc in zip(red, piv):
            if row[fc]:
                v[pc] = f.neg(row[fc])
        basis.append(v)
    return basis


def matmul(A: List[list], B: List[list], field: Field) -> List[list]:
    if _use_numpy(field):
        p = field.p
        a = np.asarray(A, dtype=np.int64) % p
        b = np.asarray(B, dtype=np.int64) % p
        return [[int(x) for x in row] for row in _chunk_matmul(a, b, p)]
    f = field
    n, k = len(A), len(B[0]) if B else 0
    out = [[f.zero()] * k for _ in range(n)]
    for i, arow in enumerate(A):
        orow = out[i]
        for t, c in enumerate(arow):
            if c:
                brow = B[t]
                for j in range(k):
                    if brow[j]:
                        orow[j] = f.add(orow[j], f.mul(c, brow[j]))
    return out


def _chunk_matmul(a, b, p):
    """a @ b mod p in int64, split along the inner dimension so that no
    partial sum overflows: acc + chunk*(p-1)^2 < p + chunk*(p-1)^2 < 2^63."""
    chunk = max(1, (2**63 - p) // (p - 1) ** 2)
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], chunk):
        acc = (acc + a[:, s:s + chunk] @ b[s:s + chunk, :]) % p
    return acc


def identity(n: int, field: Field) -> List[list]:
    f = field
    return [[f.one() if i == j else f.zero() for j in range(n)] for i in range(n)]


def mat_vec(A: List[list], v: list, field: Field) -> list:
    """Row vector times matrix: (v . A)."""
    return matmul([v], A, field)[0]
