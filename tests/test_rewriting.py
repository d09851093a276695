import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from test_fields import DETERMINISTIC

from cycbmw import rewriting
from cycbmw.acceptance import generic_parameters, semi_parameters
from cycbmw.fields import GF, QQ
from cycbmw.linalg import dtype_for, matmul_mod, reduce_mod, zeros
from cycbmw.params import ParameterSet, admissible_rho
from cycbmw.presentation import (canonical_relations, default_degree_cap,
                                 select_orientation13)
from cycbmw.rewriting import (Basis, CompletionError, RewriteSystem, complete,
                              deglex_key, enumerate_irreducible_words,
                              overlap_differences)


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


# -- composite overlaps: pruning against the unpruned main loop ----------------------

def _never(rs, w):
    """The unpruned main loop: every ambiguity is reduced."""
    return False


def _always(rs, w):
    """Every main-loop ambiguity is skipped; only verification resolves pairs."""
    return True


def _presentation(n, p, variant="bmw"):
    ori = select_orientation13(p, variant=variant)
    eqs = canonical_relations(n, p, variant=variant, orientation13=ori)
    return eqs, p.field, default_degree_cap(n, p.r)


SYSTEMS = {
    "s3": lambda: (_s3_equations(), QQ, 8),
    "gf101_b22": lambda: _presentation(2, generic_parameters(2)),
    "gf101_b13": lambda: _presentation(3, generic_parameters(1)),
    "gf101_b14": lambda: _presentation(4, generic_parameters(1)),
    "gf101_semi_b23": lambda: _presentation(3, semi_parameters()),
    "gf101_ak_b23": lambda: _presentation(3, generic_parameters(2), "ariki_koike"),
    "q_b13": lambda: _presentation(3, ParameterSet(QQ, 2, "1/3", [3], admissible=True)),
}

_UNMOVED = ("rules_added", "rules_removed", "verification_ambiguities",
            "max_rule_degree", "passes")


@pytest.mark.parametrize("case", sorted(SYSTEMS))
def test_pruning_keeps_rules_and_statistics(case, monkeypatch):
    eqs, field, cap = SYSTEMS[case]()
    rs, stats = complete(eqs, field, cap)
    monkeypatch.setattr(rewriting, "_interior_redex", _never)
    ref, ref_stats = complete(eqs, field, cap)
    assert rs.rules == ref.rules
    assert ref_stats.ambiguities_pruned == 0
    for key in _UNMOVED:
        assert getattr(stats, key) == getattr(ref_stats, key), key


@pytest.mark.parametrize("case", ["gf101_b22", "gf101_b13"])
def test_verification_pass_certifies_when_every_pair_is_skipped(case, monkeypatch):
    eqs, field, cap = SYSTEMS[case]()
    ref, _ = complete(eqs, field, cap)
    monkeypatch.setattr(rewriting, "_interior_redex", _always)
    rs, stats = complete(eqs, field, cap)
    assert rs.rules == ref.rules
    assert stats.ambiguities_checked == 0 and stats.ambiguities_pruned > 0
    assert stats.passes > 1


# -- the certificate: the relations act as 0 on the basis ------------------------------

@pytest.mark.parametrize("case", sorted(SYSTEMS))
def test_walk_and_reduction_resolve_every_overlap(case):
    # every relation, walked through the basis' right actions, acts as 0,
    # and reducing each overlap of the same system finds no failure either
    eqs, field, cap = SYSTEMS[case]()
    rs, stats = complete(eqs, field, cap)
    assert rs.basis is not None
    assert rewriting._relations_vanish(rs.basis, eqs)
    reduced = list(overlap_differences(rs))
    assert len(reduced) == stats.verification_ambiguities
    assert not any(t[3] for t in reduced)


def _overlaps(a: bytes, b: bytes):
    """Proper overlaps: suffix of a == prefix of b, shorter than both."""
    return [ov for ov in range(1, min(len(a), len(b))) if a[-ov:] == b[:ov]]


def pairwise_overlaps(rs):
    """Every (a, b, ov) of the rules by testing each ordered pair of lhss."""
    lhss = sorted(rs.rules, key=deglex_key)
    return [(a, b, ov) for a in lhss for b in lhss for ov in _overlaps(a, b)]


@pytest.mark.parametrize("case", sorted(SYSTEMS))
def test_overlap_index_matches_pairwise_enumeration(case):
    eqs, field, cap = SYSTEMS[case]()
    rs, stats = complete(eqs, field, cap)
    triples = list(rewriting._overlap_triples(rs))
    assert triples == pairwise_overlaps(rs)
    # the overlaps are counted from the prefix index, never walked
    assert rewriting._overlap_count(rs) == len(triples) == stats.verification_ambiguities


def _drop_one_rhs_term(rs):
    """The rules of rs with the largest rhs word of its longest rhs dropped."""
    lhs = max(rs.rules, key=lambda L: (len(rs.rules[L]), deglex_key(L)))
    dropped = max(rs.rules[lhs], key=deglex_key)
    broken = RewriteSystem(rs.field)
    for L, rhs in rs.rules.items():
        broken.add_rule(L, {w: c for w, c in rhs.items() if (L, w) != (lhs, dropped)})
    return broken


def test_broken_rule_fails_the_certificate_and_complete_falls_back(monkeypatch):
    # dropping one rhs term breaks confluence: the relations no longer act
    # as 0 through the broken rules' actions, and reduction fails overlaps
    eqs, field, cap = SYSTEMS["gf101_b13"]()
    rs, _ = complete(eqs, field, cap)
    broken = _drop_one_rhs_term(rs)
    basis = Basis(broken, rs.basis.words, _letters(rs))
    assert not rewriting._relations_vanish(basis, eqs)
    failed = [bool(t[3]) for t in overlap_differences(broken)]
    assert 0 < sum(failed) < len(failed)
    # complete, its certificate run on that basis, reduces every overlap of
    # its own system instead, finds them resolved and keeps no basis
    reduced = []
    vanish, differences = rewriting._relations_vanish, rewriting.overlap_differences
    monkeypatch.setattr(rewriting, "_relations_vanish", lambda _, eqs: vanish(basis, eqs))
    monkeypatch.setattr(rewriting, "overlap_differences",
                        lambda system: reduced.append(system) or differences(system))
    ref, stats = complete(eqs, field, cap)
    assert reduced == [ref] and ref.basis is None and stats.passes == 1
    assert ref.rules == rs.rules


def _admissible(field, r):
    # q = 1/2: over GF(p), residues spread over the whole range
    q = field(2).inv()
    u = [(q * q) ** (1 + 4 * i) for i in range(r)]
    return ParameterSet(field, q, admissible_rho(q, u), u, admissible=True)


# the largest prime whose residues take the int64 paths of `linalg`
_INT64_TOP = 3_037_000_493


@pytest.mark.parametrize("field", [GF(101), GF(2**31 - 1), GF(2**61 - 1), GF(_INT64_TOP), QQ],
                         ids=["p101", "p2^31-1", "p2^61-1", "p3037000493", "Q"])
def test_changed_action_entry_fails_the_certificate(field):
    assert dtype_for(_INT64_TOP) is np.int64 and dtype_for(_INT64_TOP + 8) is object
    eqs, _, cap = _presentation(2, _admissible(field, 2))
    rs, _ = complete(eqs, field, cap)
    basis = rs.basis
    assert basis is not None and rewriting._relations_vanish(basis, eqs)
    start, cols, vals = basis.csr
    for t in range(0, len(vals), 7):
        changed = vals.copy()
        changed[t] = reduce_mod(changed[t] + 1, field.p)
        basis.csr = (start, cols, changed)
        assert not rewriting._relations_vanish(basis, eqs), t
    basis.csr = (start, cols, vals)
    assert rewriting._relations_vanish(basis, eqs)


def _letters(rs):
    """The letter count of a finished system: in a finite quotient every
    letter's powers reduce, so each letter occurs in some lhs."""
    return 1 + max(map(max, rs.rules))


@pytest.mark.parametrize("case", ["gf101_b13", "q_b13", "gf101_ak_b23"])
def test_action_rows_are_the_normal_forms_of_the_words(case):
    # row g dim + k of the stacked actions against NF(b_k g), reduced on its
    # own; the Basis is made here, so a wrong fill fails here, not only in
    # the certificate of `complete`
    eqs, field, cap = SYSTEMS[case]()
    rs = complete(eqs, field, cap)[0]
    letters = _letters(rs)
    basis = Basis(rs, enumerate_irreducible_words(rs, letters, cap), letters)
    # the actions are kept once, as the CSR
    assert set(vars(basis)) == {"field", "words", "index", "csr", "denominator"}
    dim, (start, cols, vals) = len(basis.words), basis.csr
    assert len(start) == letters * dim + 1
    for g in range(letters):
        for k, b in enumerate(basis.words):
            t = slice(start[g * dim + k], start[g * dim + k + 1])
            row = {basis.words[j]: v if field.p else Fraction(v, basis.denominator)
                   for j, v in zip(cols[t].tolist(), vals[t].tolist())}
            assert row == rs.reduce_word(b + bytes((g,))), (b, g)


# -- Basis.rho against products of dense action matrices -----------------------------

def _dense_actions(rs):
    """The dense matrix of the action of each letter: row k of the action
    of g holds NF(b_k g), by `reduce_word`."""
    basis, m = rs.basis, rs.field.p
    dim = len(basis.words)
    actions = []
    for g in range(_letters(rs)):
        action = zeros((dim, dim), m)
        for k, b in enumerate(basis.words):
            for v, c in rs.reduce_word(b + bytes((g,))).items():
                action[k, basis.index[v]] = c
        actions.append(action)
    return actions


def _dense_rho(actions, w, field):
    """rho(w) as the product of the dense matrices of the actions of its letters."""
    dim, m = len(actions[0]), field.p
    out = zeros((dim, dim), m)
    out[range(dim), range(dim)] = field.one()
    for g in w:
        out = matmul_mod(out, actions[g], m)
    return out


def _rho_words(letters):
    """Seeded words with shared prefixes, repeats, a word that is a prefix
    of a later word, and the empty word."""
    rng = random.Random(23)
    stems = [bytes(rng.randrange(letters) for _ in range(rng.randint(1, 3))) for _ in range(6)]
    words = [s + bytes(rng.randrange(letters) for _ in range(rng.randint(0, 3)))
             for s in stems for _ in range(2)]
    rng.shuffle(words)
    long = next(w for w in words if len(w) > 2)
    return [long[:2], *words, b"", words[3], long, b""]


@pytest.mark.parametrize("case", ["gf101_b13", "q_b13"])
def test_rho_is_the_product_of_the_actions(case):
    eqs, field, cap = SYSTEMS[case]()
    rs = complete(eqs, field, cap)[0]
    basis, actions = rs.basis, _dense_actions(rs)
    dim, den = len(basis.words), basis.denominator
    assert (den > 1) == (field.p == 0)
    words = _rho_words(len(actions))
    assert len(set(words)) < len(words) and b"" in words
    assert any(len(a) < len(b) and b.startswith(a)
               for i, a in enumerate(words) for b in words[i + 1:])
    walked = list(basis.rho(words))
    assert len(walked) == len(words)
    for w, (rows, cols, vals) in zip(words, walked):
        keys = rows * dim + cols
        assert (np.diff(keys) > 0).all() and vals.all()
        got = zeros((dim, dim), field.p)
        # over Q the walk holds numerators over denominator^len(w)
        got[rows, cols] = vals if field.p else [Fraction(v, den ** len(w)) for v in vals]
        assert got.tolist() == _dense_rho(actions, w, field).tolist(), w


_X, _Y = b"\x00", b"\x01"
_ONE = QQ.one()

# x^3 = x next to a free letter y: the words x^j y^k (j < 3) are infinite at
# any cap; rules and statistics are those of the per-overlap reduction
INFINITE_SYSTEMS = {
    "commuting": ([{_X * 3: _ONE, _X: -_ONE}, {_Y + _X: _ONE, _X + _Y: -_ONE}],
                  {_X * 3: {_X: _ONE}, _Y + _X: {_X + _Y: _ONE}},
                  {"rules_added": 2, "rules_removed": 0, "ambiguities_checked": 2,
                   "ambiguities_pruned": 1, "verification_ambiguities": 3,
                   "max_rule_degree": 3, "passes": 1}),
    "xyx": ([{_X * 3: _ONE, _X: -_ONE}, {_X + _Y + _X: _ONE, _Y: -_ONE}],
            {_X * 3: {_X: _ONE}, _X * 2 + _Y: {_Y: _ONE}, _Y + _X: {_X + _Y: _ONE}},
            {"rules_added": 4, "rules_removed": 1, "ambiguities_checked": 7,
             "ambiguities_pruned": 2, "verification_ambiguities": 7,
             "max_rule_degree": 3, "passes": 1}),
}


@pytest.mark.parametrize("case", sorted(INFINITE_SYSTEMS))
def test_verification_falls_back_when_words_are_infinite(case, monkeypatch):
    eqs, rules, statistics = INFINITE_SYSTEMS[case]

    def no_walk(*args):
        raise AssertionError("walked a system whose words are infinite")

    monkeypatch.setattr(rewriting, "Basis", no_walk)
    rs, stats = complete(eqs, QQ, degree_cap=8)
    assert rs.basis is None
    assert rs.rules == rules
    assert stats.as_dict() == statistics


# -- redex search against a brute-force scan ----------------------------------------

def _brute_redex(rules, w):
    """Every position left to right, and at each every lhs in deglex order."""
    ordered = sorted(rules, key=deglex_key)
    for pos in range(len(w)):
        for lhs in ordered:
            if w.startswith(lhs, pos):
                return pos, lhs
    return None


# regex metacharacters, NUL and 0xff, plus two plain letters
_META_ALPHABET = b".*|(\\\n\x00\xffab"


def _random_word(rng, alphabet, lo, hi):
    return bytes(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def _random_lhs_set(rng, alphabet):
    """Random lhs words, not reduced: some are prefixes (and factors) of others."""
    lhss = {_random_word(rng, alphabet, 1, 4) for _ in range(rng.randint(1, 8))}
    for lhs in list(lhss):
        if rng.random() < 0.5:
            lhss.add(lhs + _random_word(rng, alphabet, 1, 3))
        if rng.random() < 0.25:
            lhss.add(_random_word(rng, alphabet, 1, 2) + lhs)
    return lhss


def _probe_words(rng, alphabet, lhss):
    words = [_random_word(rng, alphabet, 0, 12) for _ in range(20)]
    # words that certainly contain each lhs, somewhere inside
    words += [_random_word(rng, alphabet, 0, 3) + lhs + _random_word(rng, alphabet, 0, 3)
              for lhs in lhss]
    return words


def _assert_redexes_match(rs, words):
    for w in words:
        assert rs.find_redex(w) == _brute_redex(rs.rules, w), (sorted(rs.rules), w)


def _assert_index_matches_rules(rs):
    """`starting`/`ending` equal a rebuild from the lhss and hold no empty set."""
    starting, ending = {}, {}
    for lhs in rs.rules:
        for i in range(1, len(lhs)):
            starting.setdefault(lhs[:i], set()).add(lhs)
            ending.setdefault(lhs[i:], set()).add(lhs)
    assert rs.starting == starting and rs.ending == ending
    assert all(rs.starting.values()) and all(rs.ending.values())


@pytest.mark.parametrize("alphabet", [_META_ALPHABET, bytes(range(256)), b"\x00\x01"],
                         ids=["metachars", "all-bytes", "binary"])
def test_find_redex_matches_brute_force(alphabet):
    rng = random.Random(len(alphabet))
    for _ in range(150):
        lhss = _random_lhs_set(rng, alphabet)
        rs = RewriteSystem(GF(101))
        for lhs in lhss:
            rs.add_rule(lhs, {})
        _assert_redexes_match(rs, _probe_words(rng, alphabet, lhss))


def _irreducible_prefix(rs, w):
    """The longest prefix of w with no redex."""
    return next(w[:i] for i in range(len(w), -1, -1) if _brute_redex(rs.rules, w[:i]) is None)


@pytest.mark.parametrize("alphabet", [_META_ALPHABET, bytes(range(256)), b"\x00\x01"],
                         ids=["metachars", "all-bytes", "binary"])
def test_redex_at_end_matches_brute_force(alphabet):
    # on w + g with w irreducible every redex ends at g: the leftmost one
    rng = random.Random(len(alphabet) + 1)
    hits = 0
    for _ in range(150):
        lhss = _random_lhs_set(rng, alphabet)
        rs = RewriteSystem(GF(101))
        for lhs in lhss:
            rs.add_rule(lhs, {})
        for w in _probe_words(rng, alphabet, lhss):
            w = _irreducible_prefix(rs, w)
            for g in {rng.choice(alphabet), *(lhs[-1] for lhs in lhss)}:
                wg = w + bytes((g,))
                expected = _brute_redex(rs.rules, wg)
                assert rs.redex_at_end(wg) == expected, (sorted(rs.rules), wg)
                hits += expected is not None
    assert hits


def test_find_redex_empty_rule_set_never_matches():
    rs = RewriteSystem(QQ)
    for w in (b"", b"\x00", b"(?!)", bytes(range(256))):
        assert rs.find_redex(w) is None
    rs.add_rule(b"a", {})
    assert rs.find_redex(b"ba") == (1, b"a")
    rs.remove_rule(b"a")
    for w in (b"", b"a", b"ba"):
        assert rs.find_redex(w) is None


def test_find_redex_follows_rule_events():
    # a stale matcher would still find removed rules or miss added ones
    rng = random.Random(7)
    alphabet = _META_ALPHABET
    rs = RewriteSystem(GF(101))
    pool = sorted(_random_lhs_set(rng, alphabet) | _random_lhs_set(rng, alphabet))
    for _ in range(300):
        lhs = rng.choice(pool)
        if lhs in rs.rules:
            rs.remove_rule(lhs)
        else:
            rs.add_rule(lhs, {})
        _assert_redexes_match(rs, _probe_words(rng, alphabet, pool))
        _assert_index_matches_rules(rs)
    assert rs.rules and len(rs.rules) < len(pool)


def test_add_rule_on_a_present_lhs_keeps_the_index():
    rs = RewriteSystem(GF(101))
    for lhs in (b"abc", b"bcd", b"cab"):
        rs.add_rule(lhs, {b"a": 1})
    starting = {k: set(v) for k, v in rs.starting.items()}
    ending = {k: set(v) for k, v in rs.ending.items()}
    rs.add_rule(b"bcd", {b"b": 2})
    assert rs.rules[b"bcd"] == {b"b": 2}
    assert rs.starting == starting and rs.ending == ending
    _assert_index_matches_rules(rs)
    rs.remove_rule(b"bcd")
    _assert_index_matches_rules(rs)
    assert b"bc" not in rs.starting and b"cd" not in rs.ending and b"bc" in rs.ending


# -- normal forms on random rewrite systems -----------------------------------------

def _words(letters, max_len):
    return st.lists(st.integers(0, letters - 1), max_size=max_len).map(bytes)


def _coeffs(field):
    if field == QQ:
        return st.fractions(-9, 9, max_denominator=9).filter(bool)
    return st.integers(1, field.p - 1)


def _elements(field, letters, max_len, max_terms):
    return st.dictionaries(_words(letters, max_len), _coeffs(field),
                           min_size=1, max_size=max_terms)


def _lincomb(field, a, x, b, y):
    """a*x + b*y on sparse elements, dropping zero coefficients."""
    out = {}
    for c, el in ((a, x), (b, y)):
        for w, v in el.items():
            s = field.add(out.get(w, field.zero()), field.mul(c, v))
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


@pytest.mark.parametrize("field", [GF(101), QQ], ids=["GF(101)", "Q"])
@DETERMINISTIC
@given(data=st.data())
def test_random_system_normal_forms(field, data):
    letters = data.draw(st.integers(1, 2))
    eqs = data.draw(st.lists(_elements(field, letters, 3, 3), min_size=1, max_size=3))
    try:
        rs, _ = complete(eqs, field, degree_cap=6, max_rule_events=500)
    except CompletionError:
        return
    with mock.patch.object(rewriting, "_interior_redex", _never):
        ref, _ = complete(eqs, field, degree_cap=6, max_rule_events=500)
    assert rs.rules == ref.rules
    # reduce is idempotent, lands on irreducible words, and is linear
    x, y = (data.draw(_elements(field, letters, 6, 4)) for _ in range(2))
    a, b = (data.draw(_coeffs(field)) for _ in range(2))
    nx, ny = rs.reduce(x), rs.reduce(y)
    assert rs.reduce(nx) == nx
    assert all(rs.find_redex(w) is None for w in nx)
    assert rs.reduce(_lincomb(field, a, x, b, y)) == _lincomb(field, a, nx, b, ny)
    # the irreducible words are exactly the words with no lhs as a factor
    cap = 5
    brute = [bytes(w) for n in range(cap + 1)
             for w in itertools.product(range(letters), repeat=n)
             if not any(lhs in bytes(w) for lhs in rs.rules)]
    assert enumerate_irreducible_words(rs, letters, cap, strict=False) == \
        sorted(brute, key=deglex_key)


def test_reduce_returns_canonical_residues_of_unreduced_input():
    F = GF(101)
    rs = RewriteSystem(F)
    assert rs.reduce({b"": -1, b"\x00": 205}) == {b"\x00": 3, b"": 100}
    assert rs.reduce({b"": -101, b"\x00": 202}) == {}
    # x^2 -> 3x - 2 (as residues 3 and 99): raw sums meet in the rewriting
    rs.add_rule(b"\x00\x00", {b"\x00": 3, b"": 99})
    assert rs.reduce({b"\x00\x00": -1, b"\x00": 3 + 101, b"": -5}) == {b"": 98}
    rng = random.Random(3)
    for _ in range(200):
        el = {bytes(rng.randrange(2) for _ in range(rng.randrange(5))): rng.randrange(-500, 500)
              for _ in range(4)}
        out = rs.reduce(el)
        assert all(type(c) is int and 0 < c < 101 for c in out.values())
        assert out == rs.reduce({w: c % 101 for w, c in el.items()})
