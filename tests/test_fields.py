import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycbmw.fields import (GF, QQ, Field, FieldError, ZeroInversionError,
                           multiplicative_order)

# Property tests draw their examples from a fixed derandomized profile, so
# every run of the suite checks the same examples.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=60)
DETERMINISTIC = settings.get_profile("deterministic")

# word-sized primes on both sides of the int64 matrix limit, and Q
PROPERTY_FIELDS = [GF(p) for p in (2, 101, 2**31 - 1, 3037000493, 2**61 - 1,
                                   2**63 - 25)] + [QQ]
FIELD_IDS = [f.descriptor_string() for f in PROPERTY_FIELDS]


def raw_values(field):
    if field == QQ:
        return st.fractions(max_denominator=10**20)
    return st.integers(0, field.p - 1)


def canonical(field, x) -> bool:
    if field == QQ:
        return isinstance(x, Fraction)
    return isinstance(x, int) and 0 <= x < field.p


def test_gf7_basic():
    F = GF(7)
    assert F(3) * F(5) == F(1)
    assert (F(3) * F(5)).value == 1
    for x in range(7):
        assert (F(0) * F(x)).is_zero()


def test_rationals_basic():
    assert QQ("1/2") + QQ("1/3") == QQ("5/6")
    assert QQ("3/2").inv() == QQ("2/3")
    assert (QQ(2) - QQ(2)).is_zero()


def test_inverse():
    F = GF(7)
    assert F(3).inv() == F(5)
    with pytest.raises(ZeroInversionError):
        F(0).inv()
    with pytest.raises(ZeroInversionError):
        QQ(0).inv()


def test_multiplicative_order():
    F = GF(7)
    assert multiplicative_order(F(2)) == 3
    assert multiplicative_order(QQ(-1)) == 2
    assert multiplicative_order(QQ(2)) is None
    assert multiplicative_order(QQ(1)) == 1
    with pytest.raises(ZeroInversionError):
        multiplicative_order(F(0))


def test_order_is_minimal():
    F = GF(101)
    rng = random.Random(7)
    for _ in range(50):
        a = F(rng.randrange(1, 101))
        m = multiplicative_order(a)
        assert a**m == F(1)
        for k in range(1, m):
            assert a**k != F(1)


def test_field_axioms_sampled():
    rng = random.Random(11)
    for field, sample in ((GF(101), lambda: field(rng.randrange(101))),
                          (QQ, lambda: field(Fraction(rng.randrange(-9, 10),
                                                      rng.randrange(1, 9))))):
        for _ in range(200):
            a, b, c = sample(), sample(), sample()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inv() == field(1)


def test_fraction_canonical():
    x = QQ("4/6")
    assert x.value == Fraction(2, 3)
    assert x.value.denominator > 0
    y = QQ("-4/6")
    assert str(y) == "-2/3"


def test_string_round_trip():
    F = GF(101)
    for x in (F(0), F(1), F(73)):
        assert F(F.render(x.value)) == x
    for s in ("5", "-3/4", "0", "12/7"):
        assert str(QQ(s)) == str(Fraction(s))
        assert QQ(str(QQ(s))) == QQ(s)


def test_descriptor_strings():
    assert Field.from_descriptor("q") == QQ
    assert Field.from_descriptor("gfp:101") == GF(101)
    assert GF(101).descriptor_string() == "gfp:101"
    assert QQ.descriptor_string() == "q"
    with pytest.raises(FieldError):
        Field.from_descriptor("gfp:100")   # not prime
    with pytest.raises(FieldError):
        Field.from_descriptor("reals")


def test_parse_rejects_zero_denominator():
    for s in ("1/0", " -3/0 "):
        with pytest.raises(FieldError, match="zero denominator"):
            QQ.parse(s)
        with pytest.raises(FieldError, match="zero denominator"):
            QQ(s)


def test_parse_names_the_digit_limit():
    # Python converts at most sys.get_int_max_str_digits() decimal digits
    limit = sys.get_int_max_str_digits()
    for field in (QQ, GF(101)):
        with pytest.raises(FieldError, match=f"a value of {limit + 1} digits exceeds "
                                             f"the limit of {limit} digits"):
            field.parse("1" + "0" * limit)
    assert QQ.parse("1" + "0" * (limit - 1) + "/3") == Fraction(10 ** (limit - 1), 3)
    with pytest.raises(ValueError, match="Invalid literal"):
        QQ.parse("1/x")


def test_descriptor_mismatch():
    with pytest.raises(FieldError):
        GF(7)(1) + GF(11)(1)
    with pytest.raises(FieldError):
        QQ(1) * GF(7)(1)


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=FIELD_IDS)
@DETERMINISTIC
@given(data=st.data())
def test_field_axioms_property(field, data):
    a, b, c = (data.draw(raw_values(field)) for _ in range(3))
    add, mul = field.add, field.mul
    zero, one = field.zero(), field.one()
    for x in (add(a, b), mul(a, b), field.sub(a, b), field.neg(a)):
        assert canonical(field, x)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(a, field.neg(a)) == zero and field.sub(a, b) == add(a, field.neg(b))
    assert mul(a, one) == a and add(a, zero) == a
    if a:
        inv = field.inv(a)
        assert canonical(field, inv) and mul(a, inv) == one
        assert field.div(b, a) == mul(b, inv)
    else:
        with pytest.raises(ZeroInversionError):
            field.inv(a)
    x, y = field(a), field(b)
    assert (x + y).value == add(a, b) and (x * y).value == mul(a, b)
    assert (x - y).value == field.sub(a, b)


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=FIELD_IDS)
@DETERMINISTIC
@given(data=st.data(), n=st.integers(-2**130, 2**130))
def test_of_int_parse_render_round_trip(field, data, n):
    a = data.draw(raw_values(field))
    assert field.parse(field.render(a)) == a
    assert field(field.render(a)) == field(a)
    assert canonical(field, field.of_int(n))
    assert field.of_int(n) == field.parse(str(n)) == field(n).value
    if field == QQ:
        assert field.of_int(n) == Fraction(n)
        assert field.render(a) == str(a)
    else:
        assert field.of_int(n) == n % field.p
        assert field.render(field.of_int(n)) == str(n % field.p)


def test_lincomb_cases():
    F = GF(101)
    # a cancelled key is dropped; negative raw values come back as residues
    assert F.lincomb([(1, {b"a": 3, b"b": 2}), (-1, {b"a": 3})]) == {b"b": 2}
    assert F.lincomb([(-1, {0: 1}), (1, {1: -205})]) == {0: 100, 1: 98}
    assert F.lincomb([(2**70, {0: -(2**70)})]) == {0: (-(2**140)) % 101}
    # Q keeps Fractions, and a Q sum that cancels is dropped too
    out = QQ.lincomb([(Fraction(1, 2), {0: Fraction(2, 3)}), (Fraction(1), {0: Fraction(1, 6)}),
                      (Fraction(-1), {1: Fraction(1, 3)}), (Fraction(1, 3), {1: Fraction(1)})])
    assert out == {0: Fraction(1, 2)} and type(out[0]) is Fraction
    # bytes keys and int keys
    assert F.lincomb([(3, {b"\x00\x01": 50})]) == {b"\x00\x01": 49}
    assert F.lincomb([(3, {7: 50})]) == {7: 49}
    # empty terms, and terms with empty vectors
    for field in (F, QQ):
        assert field.lincomb([]) == {} and field.lincomb([(1, {})]) == {}
    # the keys come out in order of first appearance
    out = F.lincomb([(1, {2: 1, 0: 1}), (1, {5: 1, 2: 1}), (1, {0: 100, 9: 4})])
    assert list(out.items()) == [(2, 2), (5, 1), (9, 4)]
    # the terms may be a generator, consumed once
    assert F.lincomb((c, {0: 1}) for c in range(5)) == {0: 10}


LINCOMB_FIELDS = [GF(2), GF(101), GF(2**61 - 1), QQ]


@pytest.mark.parametrize("field", LINCOMB_FIELDS,
                         ids=[f.descriptor_string() for f in LINCOMB_FIELDS])
@DETERMINISTIC
@given(data=st.data())
def test_lincomb_equals_field_element_sums(field, data):
    """The kernel's unreduced sums agree with FieldElement arithmetic, key
    order included (first appearance, cancelled keys left out)."""
    # raw scalars may be unreduced, as the callers' -1 and -c are
    scalar = (st.fractions(max_denominator=10**6) if field == QQ
              else st.integers(-3 * field.p, 3 * field.p))
    keys = st.one_of(st.integers(0, 4), st.binary(max_size=2))
    terms = data.draw(st.lists(st.tuples(scalar, st.dictionaries(keys, raw_values(field),
                                                                 max_size=5)), max_size=6))
    want: dict = {}
    for c, v in terms:
        for key, d in v.items():
            want[key] = want.get(key, field(0)) + field(c) * field(d)
    out = field.lincomb(terms)
    assert list(out.items()) == [(key, x.value) for key, x in want.items() if x]
    assert all(canonical(field, c) for c in out.values())
