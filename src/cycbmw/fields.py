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

`isprime`, `factorint` and `discrete_log` are the integer number theory
the rest needs: the check that a characteristic is prime, the order of
q^2 in GF(p)^*, and the charges s_j with u_j = q^{2 s_j}.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from fractions import Fraction


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
            if p < 2 or p > MAX_PRIME or not isprime(p):
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
    for prime in factorint(m):
        while m % prime == 0 and pow(a.value, m // prime, f.p) == 1:
            m //= prime
    return m


# -- number theory on word-sized integers ----------------------------------------

# The strong probable-prime test to the twelve prime bases 2..37 decides
# every n below this bound (Sorenson & Webster 2015), MAX_PRIME included.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def isprime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; refused for
    n >= 3.18 * 10^23, where these bases no longer decide."""
    if n >= _MR_LIMIT:
        raise ValueError(f"isprime is exact only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the composite n: Pollard's rho walk y -> y^2 + c,
    with Brent's cycle finding, retried with the next c when it fails."""
    c = 0
    while True:
        c += 1
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def factorint(n: int) -> dict:
    """{prime: exponent} of n >= 1, primes ascending: trial division below
    2^10, then Pollard-Brent rho on the cofactors that `isprime` finds
    composite (so a cofactor beyond its bound is refused)."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out: dict = defaultdict(int)
    for d in (2, *range(3, 1024, 2)):
        if d * d > n:
            break
        while n % d == 0:
            n //= d
            out[d] += 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if isprime(m):
            out[m] += 1
        else:
            d = _rho_factor(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def _bsgs(p: int, t: int, g: int, q: int):
    """The y in 0..q-1 with g^y = t mod p, g of order q, or None when t is
    not a power of g (Shanks's baby-step giant-step: ceil(sqrt q) stored
    powers)."""
    m = math.isqrt(q - 1) + 1
    baby, e = {}, 1
    for j in range(m):
        baby.setdefault(e, j)
        e = e * g % p
    giant = pow(g, -m, p)
    for i in range(m):
        j = baby.get(t)
        if j is not None:
            return i * m + j
        t = t * giant % p
    return None


def discrete_log(p: int, a: int, b: int, order: int) -> int:
    """The x in 0..order-1 with b^x = a mod the prime p, where b has
    multiplicative order `order` (Pohlig & Hellman 1978): x mod each prime
    power q^k of the order is read digit by digit, each digit a log in the
    subgroup of order q by `_bsgs`, and the residues are joined by the
    Chinese remainder theorem.  Raises ValueError when a is not a power of b."""
    x, mod = 0, 1
    for q, k in factorint(order).items():
        qk = q**k
        g, h = pow(b, order // qk, p), pow(a, order // qk, p)
        gamma = pow(g, qk // q, p)
        xq = 0
        for i in range(k):
            digit = _bsgs(p, pow(pow(g, -xq, p) * h % p, q ** (k - 1 - i), p), gamma, q)
            if digit is None:       # a is not in <b>: the check below refuses it
                break
            xq += digit * q**i
        x += mod * ((xq - x) * pow(mod, -1, qk) % qk)
        mod *= qk
    if pow(b, x, p) != a % p:
        raise ValueError(f"{a} is not a power of {b} modulo {p}")
    return x
