import random

import pytest

from cycbmw.fields import GF, QQ
from cycbmw.rewriting import (CompletionError, RewriteSystem, complete,
                              deglex_key, enumerate_irreducible_words)


def test_deglex_order():
    assert deglex_key(b"") < deglex_key(b"\x00")
    assert deglex_key(b"\x01") < deglex_key(b"\x00\x00")   # degree first
    assert deglex_key(b"\x00\x02") < deglex_key(b"\x01\x00")


def test_free_algebra_truncation():
    rs, _ = complete([], QQ, degree_cap=2)
    words = enumerate_irreducible_words(rs, 1, 2, strict=False)
    assert words == [b"", b"\x00", b"\x00\x00"]
    with pytest.raises(CompletionError):
        enumerate_irreducible_words(rs, 1, 2)


def test_commutative_pair():
    # xy = yx, x^2 = 1, y^3 = 1 -> dimension 6
    F = QQ
    one = F.one()
    x, y = b"\x00", b"\x01"
    eqs = [{y + x: one, x + y: -one},
           {x + x: one, b"": -one},
           {y * 3: one, b"": -one}]
    rs, stats = complete(eqs, F, degree_cap=8)
    words = enumerate_irreducible_words(rs, 2, 8)
    assert len(words) == 6


def test_sl2_like_collapse():
    # a b = 1, b a = 1 completes to a group algebra Z-grading: ab -> 1, ba -> 1
    F = GF(7)
    one = F.one()
    a, b = b"\x00", b"\x01"
    eqs = [{a + b: one, b"": F.neg(one)}, {b + a: one, b"": F.neg(one)}]
    rs, _ = complete(eqs, F, degree_cap=6)
    # infinite-dimensional quotient (Laurent polynomials): strict must raise
    with pytest.raises(CompletionError):
        enumerate_irreducible_words(rs, 2, 6)
    words = enumerate_irreducible_words(rs, 2, 6, strict=False)
    # irreducible words are a^k and b^k only
    assert all(set(w) in (set(), {0}, {1}) for w in words)


def _s3_equations():
    # overlap-heavy system: symmetric group S_3 as a Coxeter presentation
    one = QQ.one()
    s, t = b"\x00", b"\x01"
    return [{s + s: one, b"": -one},
            {t + t: one, b"": -one},
            {s + t + s: one, t + s + t: -one}]


def test_normal_form_idempotent_and_linear():
    F = GF(101)
    x = b"\x00"
    poly = [{x + x: F.one(), x: F.neg(F.of_int(3)), b"": F.of_int(2)}]  # x^2 = 3x - 2
    systems = ((complete(poly, F, degree_cap=6)[0], 1),
               (complete(_s3_equations(), QQ, degree_cap=8)[0], 2))
    for rs, letters in systems:
        F = rs.field
        rng = random.Random(2)
        for _ in range(200):
            w1, w2 = (bytes(rng.randrange(letters) for _ in range(rng.randrange(0, 6)))
                      for _ in range(2))
            c1 = F.of_int(rng.randrange(1, 101))
            # c2 = -c1 makes terms cancel when w1 and w2 share normal-form words
            c2 = F.neg(c1) if rng.random() < 0.25 else F.of_int(rng.randrange(1, 101))
            el = {}
            for w, c in ((w1, c1), (w2, c2)):
                el[w] = F.add(el.get(w, 0), c)
            nf = rs.reduce(el)
            assert rs.reduce(nf) == nf
            parts = rs.reduce({w1: c1}), rs.reduce({w2: c2})
            merged = dict(parts[0])
            for w, c in parts[1].items():
                s = F.add(merged.get(w, 0), c)
                if s:
                    merged[w] = s
                elif w in merged:
                    del merged[w]
            assert merged == nf


def test_cap_exceeded_reports():
    F = QQ
    one = F.one()
    # a relation whose lead exceeds the cap must raise, never truncate
    eqs = [{b"\x00" * 5: one, b"": -one}]
    with pytest.raises(CompletionError) as err:
        complete(eqs, F, degree_cap=3)
    assert "cap" in str(err.value)


def test_completion_certificate_runs():
    rs, stats = complete(_s3_equations(), QQ, degree_cap=8)
    words = enumerate_irreducible_words(rs, 2, 8)
    assert len(words) == 6
    assert stats.verification_ambiguities > 0
