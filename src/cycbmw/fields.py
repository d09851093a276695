"""Exact scalar arithmetic over GF(p) and over the rationals.

Everything downstream (parameter formulas, rewriting, linear algebra)
computes over one of these two backends.  There is no floating point
anywhere: GF(p) values are canonical residues 0..p-1, rational values are
`fractions.Fraction` (always reduced, positive denominator).

A `Field` instance doubles as the descriptor ("which field") and as the
arithmetic kernel: the engine-facing methods (`add`, `mul`, `inv`, ...)
act on *raw* values (int residues or Fraction) for speed, while
`FieldElement` wraps a raw value together with its field for the public,
operator-friendly API.  Every raw value a method returns is canonical.

`Field.lincomb` is the one kernel for sparse linear combinations, dicts
{key: raw coeff} keyed by words or by indices: it adds plain ints (or
Fractions), reduces each sum once at the end and drops the cancelled keys.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from fractions import Fraction

import sympy


class FieldError(ValueError):
    """Invalid field construction or mixed-field arithmetic."""


class ZeroInversionError(ZeroDivisionError):
    """Attempt to invert 0 or compute the order of 0."""


RATIONALS = "rationals"
PRIME_FIELD = "prime-field"

# GF(p) is restricted to word-sized primes; desk-scale computations use
# primes like 101 or 1009.  linalg keeps matrices in int64 only while
# (p-1)^2 + p < 2^63 and in object arrays of Python ints above that, so
# every prime up to this bound is exact.
MAX_PRIME = 2**63 - 1


class Field:
    """Field descriptor plus raw arithmetic kernel.

    kind is "rationals" (characteristic 0, raw values are Fraction) or
    "prime-field" (raw values are ints in 0..p-1).
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int = 0):
        if kind == RATIONALS:
            if p != 0:
                raise FieldError("rationals have characteristic 0")
        elif kind == PRIME_FIELD:
            if p < 2 or p > MAX_PRIME or not sympy.isprime(p):
                raise FieldError(f"characteristic must be a prime < 2^63, got {p}")
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    # -- descriptor protocol ------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Field({self.descriptor_string()!r})"

    def descriptor_string(self) -> str:
        return "q" if self.kind == RATIONALS else f"gfp:{self.p}"

    @staticmethod
    def from_descriptor(s: str) -> "Field":
        s = s.strip()
        if s == "q":
            return QQ
        try:
            p = int(s[4:]) if s.startswith("gfp:") else None
        except ValueError:
            p = None
        if p is None:
            raise FieldError(f"unknown field descriptor {s!r}")
        return Field(PRIME_FIELD, p)

    # -- raw arithmetic -----------------------------------------------------
    # Raw values: int residue in 0..p-1 for GF(p), Fraction for Q.

    def zero(self):
        return 0 if self.kind == PRIME_FIELD else Fraction(0)

    def one(self):
        return 1 if self.kind == PRIME_FIELD else Fraction(1)

    def of_int(self, n: int):
        return n % self.p if self.kind == PRIME_FIELD else Fraction(n)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == PRIME_FIELD else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == PRIME_FIELD else a - b

    def neg(self, a):
        return (-a) % self.p if self.kind == PRIME_FIELD else -a

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == PRIME_FIELD else a * b

    def inv(self, a):
        if not a:
            raise ZeroInversionError("0 has no multiplicative inverse")
        return pow(a, -1, self.p) if self.kind == PRIME_FIELD else 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k: int):
        if self.kind == PRIME_FIELD:
            if k < 0 and not a:
                raise ZeroInversionError("0 has no multiplicative inverse")
            return pow(a, k, self.p)
        if k < 0 and not a:
            raise ZeroInversionError("0 has no multiplicative inverse")
        return a**k

    def is_zero(self, a) -> bool:
        return not a

    def lincomb(self, terms) -> dict:
        """sum c v over the (c, v) in `terms`, each v a sparse {key: coeff}
        of raw values: the products are added unreduced and each sum is
        reduced once; zero sums are dropped, and the keys keep the order in
        which they first appear."""
        acc: dict = defaultdict(int)
        for c, v in terms:
            for key, d in v.items():
                acc[key] += c * d
        p = self.p
        if p:
            return {key: r for key, s in acc.items() if (r := s % p)}
        return {key: s for key, s in acc.items() if s}

    # -- string format ------------------------------------------------------
    # GF(p): canonical decimal residue.  Q: "n" or "n/d" with gcd(n,d)=1, d>0.

    def render(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        s = s.strip()
        try:
            return int(s, 10) % self.p if self.kind == PRIME_FIELD else Fraction(s)
        except ZeroDivisionError:
            raise FieldError(f"zero denominator in {s!r}") from None
        except ValueError:
            # Python refuses a decimal string of more than
            # sys.get_int_max_str_digits() digits: say so in this parser's terms
            limit = sys.get_int_max_str_digits()
            digits = max(sum(ch.isdigit() for ch in part) for part in s.split("/"))
            if limit and digits > limit:
                raise FieldError(f"a value of {digits} digits exceeds the limit of "
                                 f"{limit} digits") from None
            raise

    # -- element factory ----------------------------------------------------

    def __call__(self, value) -> "FieldElement":
        """Coerce an int, Fraction, string, or FieldElement into this field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldError("element belongs to a different field")
            return value
        if isinstance(value, str):
            return FieldElement(self, self.parse(value))
        if isinstance(value, int):
            return FieldElement(self, self.of_int(value))
        if isinstance(value, Fraction):
            if self.kind == PRIME_FIELD:
                return FieldElement(self, self.div(value.numerator % self.p, value.denominator % self.p))
            return FieldElement(self, value)
        raise FieldError(f"cannot coerce {value!r} into {self}")


QQ = Field(RATIONALS)


def GF(p: int) -> Field:
    return Field(PRIME_FIELD, p)


class FieldElement:
    """Immutable exact scalar; equality is representation equality."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def _check(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.field(other)
        if not isinstance(other, FieldElement):
            raise FieldError(f"cannot combine field element with {other!r}")
        if other.field != self.field:
            raise FieldError("field descriptor mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.sub(self.value, other.value))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.mul(self.value, other.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.div(self.value, other.value))

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, k: int):
        return FieldElement(self.field, self.field.pow(self.value, k))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == self.field.of_int(other)
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return f"{self.field.descriptor_string()}:{self.field.render(self.value)}"

    def __str__(self):
        return self.field.render(self.value)


def multiplicative_order(a: FieldElement):
    """Smallest m >= 1 with a^m = 1, or None when no such m exists.

    Over GF(p) the order divides p-1 and is found from the factorization
    of p-1.  Over Q only 1 and -1 have finite order; every other nonzero
    rational has |a^m| strictly monotone, hence infinite order (None).
    """
    if a.is_zero():
        raise ZeroInversionError("0 has no multiplicative order")
    f = a.field
    if f.kind == RATIONALS:
        if a.value == 1:
            return 1
        if a.value == -1:
            return 2
        return None
    m = f.p - 1
    for prime in sympy.factorint(m):
        while m % prime == 0 and pow(a.value, m // prime, f.p) == 1:
            m //= prime
    return m
