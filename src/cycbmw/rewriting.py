"""Noncommutative rewriting over a field: normal forms and completion.

Words are `bytes` over a finite alphabet of generator ids; elements are
sparse dicts word -> raw field coefficient.  While an element is summed
it holds raw, unreduced sums, each reduced once when complete: by
`Field.lincomb`, and in `RewriteSystem.reduce` when its word is popped.
The monomial order is degree-lex: compare length first, then the byte
string (so generator precedence is the numeric order of the ids, ties
broken left to right).

Completion is the Knuth-Bendix / Buchberger-Mora loop for two-sided
ideals: orient equations into rules whose right-hand sides are strictly
smaller, resolve all overlap ambiguities, interreduce, and repeat until
stable.  Inclusion ambiguities never survive because the rule set is kept
reduced (no left-hand side contains another as a factor).  The main loop
skips a composite overlap, one whose word has a redex strictly inside:
only prime superpositions need be considered (Kapur, Musser & Narendran
1988).  With reduced rules that redex straddles the junction, and the two
smaller overlaps it forms were resolved first, because ambiguities are
popped smallest word first.  On success a certificate that never rests on
the criterion proves the irreducible words W a basis of the quotient
A = k<X>/(equations): each equation sum c_w w acts as 0 on k^W,
sum c_w rho(w) = 0, where rho(g) is the right action NF(b_k g) of the
letter g on the words, kept once as one sparse matrix, and rho(w) is walked
letter by letter (`Basis.rho`).  W spans A (every rule lies in the ideal); rho
factors through A (it kills the ideal's generators); W is prefix-closed,
so e_0 rho(b) = e_b for the empty word b_0 and b in W, and a -> e_0 rho(a)
maps A onto k^W: dim A >= |W|.  So every overlap resolves (Bergman 1978),
and the words and that matrix stay on the system (`RewriteSystem.basis`):
the product table is the same walk, over the words.  Where the certificate
fails, or the words are infinite or truncated at the cap, each overlap is
reduced from scratch, and those that do not resolve go back into the loop.

Redexes and overlaps are found through one index of the left-hand sides,
kept by `add_rule` and `remove_rule`: each proper prefix maps to the lhss
that start with it (`starting`), each proper suffix to those that end with
it (`ending`).  A redex search grows a factor from each start while it is
such a prefix; a new lhs overlaps the lhss that start with one of its
suffixes or end with one of its prefixes.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np

from .fields import Field
from .linalg import as_array, dtype_for, fraction_free, reduce_mod, sparse_times, sum_by_key

EMPTY = b""
# byte complement: reverses the lex order of equal-length words
_COMPLEMENT = bytes(range(255, -1, -1))


def deglex_key(w: bytes):
    return (len(w), w)


class CompletionError(RuntimeError):
    """Completion could not finish under the configured bounds; never silent."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class RewriteSystem:
    """A set of deglex-decreasing rules lhs -> {word: coeff}."""

    def __init__(self, field: Field):
        self.field = field
        self.rules: dict[bytes, dict[bytes, object]] = {}
        # proper prefix / proper suffix -> the lhss starting / ending with it;
        # a key whose set empties is deleted
        self.starting: dict[bytes, set] = {}
        self.ending: dict[bytes, set] = {}
        self.basis: Basis | None = None  # set by `complete`, dropped on every rule event

    def _keys(self, lhs: bytes):
        """(index, key) for each proper prefix and proper suffix of lhs."""
        for i in range(1, len(lhs)):
            yield self.starting, lhs[:i]
            yield self.ending, lhs[i:]

    def add_rule(self, lhs: bytes, rhs: dict):
        for index, key in self._keys(lhs):
            index.setdefault(key, set()).add(lhs)
        self.rules[lhs] = rhs
        self.basis = None

    def remove_rule(self, lhs: bytes):
        del self.rules[lhs]
        for index, key in self._keys(lhs):
            index[key].discard(lhs)
            if not index[key]:
                del index[key]
        self.basis = None

    def find_redex(self, w: bytes):
        """Leftmost (then shortest) match: (position, lhs) or None.

        From each start i, the factor w[i:j] grows until it is an lhs, or
        until it is no proper prefix of any lhs (`starting`), so the first
        hit is the leftmost, then shortest, lhs, on any rule set.
        """
        rules, starting = self.rules, self.starting
        n = len(w)
        for i in range(n):
            for j in range(i + 1, n + 1):
                f = w[i:j]
                if f in rules:
                    return i, f
                if f not in starting:
                    break
        return None

    def redex_at_end(self, w: bytes):
        """The longest suffix of w that is an lhs, as (position, lhs), or None:
        `find_redex(w)` when w[:-1] is irreducible, so every redex ends at the end."""
        rules, ending = self.rules, self.ending
        hit = None
        for i in range(len(w) - 1, -1, -1):
            f = w[i:]
            if f in rules:
                hit = i, f
            if f not in ending:
                break
        return hit

    def reduce(self, elem: dict) -> dict:
        """Full normal form of a sparse element.

        Words are rewritten largest first (deglex), so every term a word
        will ever receive has been accumulated, and like terms have
        cancelled, before that word is reduced or written to the result.
        A rewrite step yields only strictly smaller words, so a popped word
        never returns: each word is reduced once or emitted once.  Its
        coefficient is a raw sum, reduced to a canonical value on the pop.
        """
        p = self.field.p
        rules = self.rules
        out: dict[bytes, object] = {}
        work = dict(elem)
        # min-heap on (-degree, complemented bytes) pops the deglex-largest
        heap = [(-len(w), w.translate(_COMPLEMENT), w) for w in work]
        heapq.heapify(heap)
        while heap:
            w = heapq.heappop(heap)[2]
            c = work.pop(w)
            if p:
                c %= p
            if not c:
                continue
            m = self.find_redex(w)
            if m is None:
                out[w] = c
                continue
            pos, lhs = m
            pre = w[:pos]
            post = w[pos + len(lhs):]
            for rw, rc in rules[lhs].items():
                nw = pre + rw + post
                if nw in work:
                    work[nw] += c * rc
                else:
                    work[nw] = c * rc
                    heapq.heappush(heap, (-len(nw), nw.translate(_COMPLEMENT), nw))
        return out

    def reduce_word(self, w: bytes) -> dict:
        return self.reduce({w: self.field.one()})


def _times(field: Field, actions: list, memo: dict, j: int, u: bytes) -> dict:
    """NF(b_j u), walked through the rows filled so far: NF(b_j u) =
    sum_i c_i NF(b_i u[1:]) over NF(b_j u[0]) = sum_i c_i b_i, each (j, u)
    of two or more letters kept in `memo`; shared with it or a row, not a copy."""
    if len(u) < 2:
        return actions[u[0]][j] if u else {j: field.one()}
    out = memo.get((j, u))
    if out is None:
        rest = u[1:]
        out = memo[j, u] = field.lincomb((c, _times(field, actions, memo, i, rest))
                                         for i, c in actions[u[0]][j].items())
    return out


def _action_rows(rs: RewriteSystem, words: list, index: dict, letters: int) -> list:
    """NF(b_k g) as {index: coeff}, row g dim + k, filled in deglex order of
    b_k g.  b_k is irreducible, so a redex of b_k g ends at g (`redex_at_end`):
    b_k g = pre lhs, and NF(b_k g) is NF(pre w) summed over the rhs words w
    of lhs (`_times`), walked through the rows of words b_j h <= pre w < b_k g,
    filled before it.  The walks' memo is freed on return, before the stack."""
    field, one = rs.field, rs.field.one()
    actions = [[None] * len(words) for _ in range(letters)]
    memo: dict = {}
    # the words are in deglex order, so this visits b_k g in deglex order
    for k, word in enumerate(words):
        for g in range(letters):
            wg = word + bytes((g,))
            redex = rs.redex_at_end(wg)
            if redex is None:
                actions[g][k] = {index[wg]: one}
            else:
                pre = index[wg[:redex[0]]]
                actions[g][k] = field.lincomb((c, _times(field, actions, memo, pre, w))
                                              for w, c in rs.rules[redex[1]].items())
    return [row for act in actions for row in act]


class Basis:
    """The irreducible words of a finished system, in deglex order (every
    one: a finite, untruncated list), and the right action of each letter on
    them, stacked once as the sparse matrix `csr` = (start, cols, vals): row
    g dim + k is NF(words[k] g) (`_action_rows`), vals reduced over GF(p),
    integer numerators over `denominator` over Q (1 over GF(p))."""

    def __init__(self, rs: RewriteSystem, words: list, letters: int):
        self.field = rs.field
        self.words = words
        self.index = {w: k for k, w in enumerate(words)}
        rows = _action_rows(rs, words, self.index, letters)
        vals = as_array([c for row in rows for c in row.values()], self.field.p)
        vals, self.denominator = (vals, 1) if self.field.p else fraction_free(vals)
        self.csr = (np.cumsum([0] + [len(row) for row in rows]),
                    np.array([k for row in rows for k in row], dtype=np.int64), vals)

    def rho(self, words):
        """Yield rho(w), the right action of w on k^W, for each w of the list
        `words`, as (rows, cols, vals) in (row, column) order: rho(w) =
        rho(w[:-1]) rho(w[-1]) (`linalg.sparse_times`), a prefix's rho kept
        while a word still to come starts with it.  Over Q vals are integer
        numerators over denominator^len(w)."""
        m, dim = self.field.p, len(self.words)
        # prefix -> the number of words still to come that start with it
        need = Counter(w[:i] for w in words for i in range(1, len(w) + 1))
        cache = {EMPTY: (np.arange(dim), np.arange(dim), np.ones(dim, dtype=dtype_for(m)))}
        for w in words:
            cut = len(w)
            while w[:cut] not in cache:
                cut -= 1
            rows, cols, vals = cache[w[:cut]]
            for i in range(cut, len(w)):
                rows, cols, vals = cache[w[:i + 1]] = sparse_times(
                    rows, cols + w[i] * dim, vals, self.csr, dim, m)
            for i in range(1, len(w) + 1):
                need[w[:i]] -= 1
                if not need[w[:i]]:
                    del cache[w[:i]]
            yield rows, cols, vals


def _relations_vanish(basis: Basis, equations: list) -> bool:
    """Whether sum c_w rho(w) = 0 for every equation sum c_w w, with rho
    walked by `Basis.rho`.  Over Q rho(w) holds numerators over
    denominator^len(w), and each equation is scaled to integers."""
    m, dim, den = basis.field.p, len(basis.words), basis.denominator
    rhos = basis.rho([w for e in equations for w in e])
    for e in equations:
        top = max(map(len, e))
        scale = math.lcm(*(Fraction(c).denominator for c in e.values()))
        keys, terms = [], []
        for w, c in e.items():
            rows, cols, vals = next(rhos)
            coeff = reduce_mod(int(Fraction(c) * scale * den ** (top - len(w))), m)
            keys.append(rows * dim + cols)
            terms.append(reduce_mod(coeff * vals, m))
            del rows, cols, vals   # rho(w), released before the next is walked
        if len(sum_by_key(np.concatenate(keys), np.concatenate(terms), m)[0]):
            return False
    return True


def _overlap_triples(rs: RewriteSystem):
    """(a, b, ov) for every proper overlap of the lhss, a then b in deglex
    order, then ov increasing, found through the index `rs.starting`."""
    for a in sorted(rs.rules, key=deglex_key):
        hits = sorted((deglex_key(b), ov) for ov in range(1, len(a))
                      for b in rs.starting.get(a[-ov:], ()))
        for (_, b), ov in hits:
            yield a, b, ov


def _overlap_count(rs: RewriteSystem) -> int:
    """The number of `_overlap_triples(rs)`, read off the sizes of the index's sets."""
    return sum(len(rs.starting.get(a[-ov:], ())) for a in rs.rules for ov in range(1, len(a)))


def _s_element(rs: RewriteSystem, a: bytes, b: bytes, ov: int) -> dict:
    """The ambiguity word a + b[ov:] rewritten two ways: (rhs a) tail - head (rhs b)."""
    tail, head = b[ov:], a[:len(a) - ov]
    return rs.field.lincomb(((1, {w + tail: c for w, c in rs.rules[a].items()}),
                             (-1, {head + w: c for w, c in rs.rules[b].items()})))


def overlap_differences(rs: RewriteSystem):
    """Yield (a, b, ov, d) for every overlap of the rules, in deglex order
    of (a, b): d is the overlap's S-element after reduction, an element on
    words; the overlap resolves iff d = {}."""
    for a, b, ov in _overlap_triples(rs):
        yield a, b, ov, rs.reduce(_s_element(rs, a, b, ov))


def _interior_redex(rs: RewriteSystem, w: bytes) -> bool:
    """Whether the overlap word w has a redex strictly inside it."""
    return rs.find_redex(w[1:-1]) is not None


class CompletionStats:
    def __init__(self):
        self.rules_added = 0
        self.rules_removed = 0
        self.ambiguities_checked = 0
        self.ambiguities_pruned = 0
        self.verification_ambiguities = 0
        self.max_rule_degree = 0
        self.passes = 0

    def as_dict(self):
        return dict(vars(self))


def complete(equations, field: Field, degree_cap: int,
             max_rule_events: int = 200000):
    """Run completion; return (RewriteSystem, CompletionStats).

    `equations` are sparse elements asserted to be 0.  Raises
    CompletionError when a rule would exceed `degree_cap` or the event
    budget runs out -- an explicit incompleteness report, never silence.

    The main loop skips an ambiguity whose word has a redex strictly
    inside: with reduced rules and a smallest-first heap, the two smaller
    overlaps that redex forms were resolved first.  Each pass ends with
    the certificate of the module docstring, over the letters of the
    equations, or its fallback; on success the words and actions are left
    on the system as `rs.basis` (None after the fallback).
    `verification_ambiguities` counts each pass's overlaps either way.
    """
    equations = [dict(e) for e in equations if e]
    letters = 1 + max((max(w) for e in equations for w in e if w), default=-1)
    rs = RewriteSystem(field)
    stats = CompletionStats()
    pending = deque(equations)
    # ambiguity heap ordered by the overlap word, smallest first
    amb: list = []

    def queue_overlaps(lhs: bytes):
        # (lhs, b, ov) for every b, lhs included, and (a, lhs, ov) for every
        # other a; the heap pops whole tuples in order, however they were pushed
        for ov in range(1, len(lhs)):
            for b in rs.starting.get(lhs[-ov:], ()):
                heapq.heappush(amb, (deglex_key(lhs + b[ov:]), lhs, b, ov))
            for a in rs.ending.get(lhs[:ov], ()):
                if a != lhs:
                    heapq.heappush(amb, (deglex_key(a + lhs[ov:]), a, lhs, ov))

    def orient(elem):
        elem = rs.reduce(elem)
        if not elem:
            return
        lead = max(elem, key=deglex_key)
        if lead == EMPTY:
            raise CompletionError("the relations force 1 = 0: the quotient is the zero algebra",
                                  stats)
        if len(lead) > degree_cap:
            raise CompletionError(
                f"completion needs a rule of degree {len(lead)} > cap {degree_cap}; "
                f"raise the cap (--degree-cap)", stats)
        stats.rules_added += 1
        if stats.rules_added + stats.rules_removed > max_rule_events:
            raise CompletionError("completion did not stabilize (rule event budget)", stats)
        stats.max_rule_degree = max(stats.max_rule_degree, len(lead))
        rhs = field.lincomb(((-field.inv(elem.pop(lead)), elem),))
        # keep the set reduced: any rule whose lhs contains the new lhs
        # goes back into the queue as an equation
        stale = [L for L in rs.rules if lead in L]
        for L in stale:
            pending.append(field.lincomb(((1, {L: field.one()}), (-1, rs.rules[L]))))
            rs.remove_rule(L)
            stats.rules_removed += 1
        rs.add_rule(lead, rhs)
        queue_overlaps(lead)

    while True:
        stats.passes += 1
        while pending or amb:
            while pending:
                orient(pending.popleft())
            if amb:
                (_, w), a, b, ov = heapq.heappop(amb)
                if a not in rs.rules or b not in rs.rules:
                    continue
                if _interior_redex(rs, w):
                    stats.ambiguities_pruned += 1
                    continue
                stats.ambiguities_checked += 1
                s = rs.reduce(_s_element(rs, a, b, ov))
                if s:
                    pending.append(s)
        # canonicalize right-hand sides against the final rules
        for lhs, rhs in list(rs.rules.items()):
            if (red := rs.reduce(rhs)) != rhs:
                rs.rules[lhs] = red
        stats.verification_ambiguities += _overlap_count(rs)
        try:   # no Basis when the words are not finite at the cap
            basis = rs.rules and Basis(rs, enumerate_irreducible_words(rs, letters, degree_cap),
                                       letters)
        except CompletionError:
            basis = None
        if basis and _relations_vanish(basis, equations):
            rs.basis = basis
            return rs, stats
        failures = [d for *_, d in overlap_differences(rs) if d]
        if not failures:
            return rs, stats
        pending.extend(failures)


def enumerate_irreducible_words(rs: RewriteSystem, alphabet_size: int,
                                degree_cap: int, strict: bool = True):
    """All irreducible words of degree <= degree_cap, in deglex order.

    Grows words degree by degree; a word is irreducible iff it contains no
    rule lhs, and every factor of an irreducible word is irreducible, so
    extending the previous level by one letter (a redex can only end at
    it) and searching for a redex is complete.  An empty level ends the
    search early.  When irreducible words still exist at the cap, the
    quotient is not known to be finite-dimensional: strict mode raises
    (never a silent truncation), non-strict mode returns the truncated set.
    """
    words = [EMPTY]
    level = [EMPTY]
    while level and len(level[0]) < degree_cap:
        nxt = []
        for w in level:
            for g in range(alphabet_size):
                cand = w + bytes((g,))
                # w is irreducible, so any redex of cand ends at the new letter
                if rs.redex_at_end(cand) is None:
                    nxt.append(cand)
        level = nxt
        words.extend(level)
    if level and strict:
        raise CompletionError(
            f"irreducible words persist at degree {degree_cap}; "
            "the quotient looks infinite-dimensional under this cap")
    # each level extends the lex-sorted one before by ascending letters: deglex
    return words
