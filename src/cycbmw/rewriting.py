"""Noncommutative rewriting over a field: normal forms and completion.

Words are `bytes` over a finite alphabet of generator ids; elements are
sparse dicts word -> raw field coefficient.  The monomial order is
degree-lex: compare length first, then the byte string (so generator
precedence is the numeric order of the ids, ties broken left to right).

Completion is the Knuth-Bendix / Buchberger-Mora loop for two-sided
ideals: orient equations into rules whose right-hand sides are strictly
smaller, resolve all overlap ambiguities, interreduce, and repeat until
stable.  Inclusion ambiguities never survive because the rule set is kept
reduced (no left-hand side contains another as a factor).  The main loop
skips a composite overlap, one whose word has a redex strictly inside:
only prime superpositions need be considered (Kapur, Musser & Narendran
1988).  With reduced rules that redex straddles the junction, and the two
smaller overlaps it forms were resolved first, because ambiguities are
popped smallest word first.  On success a final verification pass
re-checks every overlap of the finished system, skipped or not, so the
diamond lemma applies unconditionally and never rests on the criterion:
the irreducible words form an exact basis of the quotient.

Redexes are found by one compiled `re` alternation over all left-hand
sides (deglex order, so the first match is leftmost, then shortest); it is
rebuilt lazily on the first search after a rule is added or removed.
"""

from __future__ import annotations

import heapq
import re
from collections import deque

from .fields import Field

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
        self._matcher = None     # compiled on demand, dropped on every rule event

    def add_rule(self, lhs: bytes, rhs: dict):
        self.rules[lhs] = rhs
        self._matcher = None

    def remove_rule(self, lhs: bytes):
        del self.rules[lhs]
        self._matcher = None

    def find_redex(self, w: bytes):
        """Leftmost (then shortest) match: (position, lhs) or None.

        One `re` alternation of every lhs in deglex order: `re` tries
        positions left to right and alternatives in order, so its first
        match is the leftmost, then shortest, lhs.  It is recompiled on the
        first search after a rule event; `(?!)` (no rules) never matches.
        """
        if self._matcher is None:
            alts = b"|".join(re.escape(lhs) for lhs in sorted(self.rules, key=deglex_key))
            self._matcher = re.compile(alts or b"(?!)")
        m = self._matcher.search(w)
        return None if m is None else (m.start(), m.group())

    def reduce(self, elem: dict) -> dict:
        """Full normal form of a sparse element.

        Words are rewritten largest first (deglex), so every term a word
        will ever receive has been accumulated, and like terms have
        cancelled, before that word is reduced or written to the result.
        A rewrite step yields only strictly smaller words, so a popped word
        never returns: each word is reduced once or emitted once.
        """
        field = self.field
        rules = self.rules
        out: dict[bytes, object] = {}
        work = dict(elem)
        # min-heap on (-degree, complemented bytes) pops the deglex-largest
        heap = [(-len(w), w.translate(_COMPLEMENT), w) for w in work]
        heapq.heapify(heap)
        while heap:
            w = heapq.heappop(heap)[2]
            c = work.pop(w)
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
                nc = field.mul(c, rc)
                if nw in work:
                    work[nw] = field.add(work[nw], nc)
                else:
                    work[nw] = nc
                    heapq.heappush(heap, (-len(nw), nw.translate(_COMPLEMENT), nw))
        return out

    def reduce_word(self, w: bytes) -> dict:
        return self.reduce({w: self.field.one()})


def _overlaps(a: bytes, b: bytes):
    """Proper overlaps: suffix of a == prefix of b, shorter than both."""
    top = min(len(a), len(b))
    for ov in range(1, top):
        if a[-ov:] == b[:ov]:
            yield ov


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
        return {
            "rules_added": self.rules_added,
            "rules_removed": self.rules_removed,
            "ambiguities_checked": self.ambiguities_checked,
            "ambiguities_pruned": self.ambiguities_pruned,
            "verification_ambiguities": self.verification_ambiguities,
            "max_rule_degree": self.max_rule_degree,
            "passes": self.passes,
        }


def complete(equations, field: Field, degree_cap: int,
             max_rule_events: int = 200000):
    """Run completion; return (RewriteSystem, CompletionStats).

    `equations` are sparse elements asserted to be 0.  Raises
    CompletionError when a rule would exceed `degree_cap` or the event
    budget runs out -- an explicit incompleteness report, never silence.

    The main loop skips an ambiguity whose word has a redex strictly
    inside: with reduced rules and a smallest-first heap, the two smaller
    overlaps that redex forms were resolved first.  The verification pass
    still checks every overlap and sends its failures back into the loop.
    """
    rs = RewriteSystem(field)
    stats = CompletionStats()
    pending = deque(dict(e) for e in equations)
    # ambiguity heap ordered by the overlap word, smallest first
    amb: list = []

    def queue_overlaps(lhs: bytes):
        for other in rs.rules:
            for ov in _overlaps(lhs, other):
                w = lhs + other[ov:]
                heapq.heappush(amb, (deglex_key(w), lhs, other, ov))
            if other != lhs:
                for ov in _overlaps(other, lhs):
                    w = other + lhs[ov:]
                    heapq.heappush(amb, (deglex_key(w), other, lhs, ov))

    def orient(elem):
        elem = rs.reduce(elem)
        if not elem:
            return
        lead = max(elem, key=deglex_key)
        if lead == EMPTY:
            raise CompletionError(
                "the relations force 1 = 0: the quotient is the zero algebra",
                stats)
        if len(lead) > degree_cap:
            raise CompletionError(
                f"completion needs a rule of degree {len(lead)} > cap {degree_cap}; "
                f"raise the cap (--degree-cap)", stats)
        stats.rules_added += 1
        if stats.rules_added + stats.rules_removed > max_rule_events:
            raise CompletionError("completion did not stabilize (rule event budget)", stats)
        stats.max_rule_degree = max(stats.max_rule_degree, len(lead))
        inv = field.inv(elem[lead])
        rhs = {w: field.neg(field.mul(c, inv)) for w, c in elem.items() if w != lead}
        # keep the set reduced: any rule whose lhs contains the new lhs
        # goes back into the queue as an equation
        stale = [L for L in rs.rules if lead in L]
        for L in stale:
            eq = {L: field.one()}
            for w, c in rs.rules[L].items():
                eq[w] = field.neg(c) if w not in eq else field.add(eq[w], field.neg(c))
            rs.remove_rule(L)
            stats.rules_removed += 1
            pending.append(eq)
        rs.add_rule(lead, rhs)
        queue_overlaps(lead)

    def s_element(a: bytes, b: bytes, ov: int):
        # ambiguity word a + b[ov:] reduced two ways
        tail = b[ov:]
        head = a[:len(a) - ov]
        left = {}
        for w, c in rs.rules[a].items():
            left[w + tail] = c
        for w, c in rs.rules[b].items():
            nw = head + w
            if nw in left:
                s = field.sub(left[nw], c)
                if s:
                    left[nw] = s
                else:
                    del left[nw]
            else:
                left[nw] = field.neg(c)
        return left

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
                s = rs.reduce(s_element(a, b, ov))
                if s:
                    pending.append(s)
        # canonicalize right-hand sides against the final rules
        for lhs in list(rs.rules):
            rhs = rs.rules[lhs]
            red = rs.reduce(dict(rhs))
            if red != rhs:
                rs.rules[lhs] = red
        # verification: every overlap of the finished system must resolve
        failures = []
        lhss = sorted(rs.rules, key=deglex_key)
        for a in lhss:
            for b in lhss:
                for ov in _overlaps(a, b):
                    stats.verification_ambiguities += 1
                    s = rs.reduce(s_element(a, b, ov))
                    if s:
                        failures.append(s)
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
                if rs.find_redex(cand) is None:
                    nxt.append(cand)
        level = nxt
        words.extend(level)
    if level and strict:
        raise CompletionError(
            f"irreducible words persist at degree {degree_cap}; "
            "the quotient looks infinite-dimensional under this cap")
    return sorted(words, key=deglex_key)
