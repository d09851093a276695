"""Index combinatorics for the simple-module classification.

Multipartitions with dominance, the index posets over (f, lambda) pairs,
Kleshchev multipartitions via the good-node crystal recursion, aperiodic
multisegments, and the two classification enumerations (affine via
multisegments, cyclotomic via Kleshchev multipartitions).

Conventions, fixed once for reproducibility:
  * the node in row a, column b of component c has residue
    (b - a + s_c) mod e  (plain integer when e is infinite);
  * addable/removable nodes are read by component index, then row index;
  * in the resulting +/- string, adjacent "-+" pairs cancel, and the good
    node is the first surviving "-";
  * e is None means infinite quantum characteristic.

The level-1 sanity anchor: a partition is reachable by good-node removals
iff it is e-restricted (successive differences < e); the test suite pins
the conventions against that characterization exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from sympy.ntheory import discrete_log, factorint

from .params import ParameterSet, omega_vanishing_report

# sympy's discrete_log splits the order of q^2 into its prime factors
# (Pohlig-Hellman) and solves each prime-order group by baby-step
# giant-step below 10^12, by Pollard rho above.  A prime order just below
# this bound took 0.6 s and 153 MB per u-value; Pollard rho near 10^13
# took 2.4-6.7 s, and near 1.2 * 10^18 had not finished after 20 s.
DISCRETE_LOG_PRIME_LIMIT = 10**12

Partition = Tuple[int, ...]
Multipartition = Tuple[Partition, ...]


class MultichargeScopeError(ValueError):
    """Parameters outside the u_j = q^{2 s_j} situation.

    The Kleshchev indexing presumes every cyclotomic root is an integral
    power of q^2; reductions beyond that (Dipper-Mathas style splitting)
    are out of scope here and rejected rather than guessed.
    """


# -- partitions ---------------------------------------------------------------

def partitions(m: int) -> List[Partition]:
    """All partitions of m, largest-part-first lexicographic order."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out: List[Partition] = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, maxpart), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(m, m, [])
    return out


def enumerate_multipartitions(r: int, m: int) -> List[Multipartition]:
    """All r-tuples of partitions with total size m, canonically ordered."""
    if r < 1:
        raise ValueError("level r must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    per_size = [partitions(k) for k in range(m + 1)]
    out: List[Multipartition] = []

    def rec(comp, rest, acc):
        if comp == r - 1:
            for lam in per_size[rest]:
                out.append(tuple(acc) + (lam,))
            return
        for k in range(rest + 1):
            for lam in per_size[k]:
                acc.append(lam)
                rec(comp + 1, rest - k, acc)
                acc.pop()

    rec(0, m, [])
    out.sort()
    return out


def size(lam: Multipartition) -> int:
    return sum(sum(c) for c in lam)


def _as_multipartition(lam) -> Multipartition:
    """Accept a bare partition as the level-1 case."""
    if lam and isinstance(lam[0], int):
        return (tuple(lam),)
    return tuple(tuple(c) for c in lam)


def dominates(lam, mu) -> bool:
    """lam is dominated by mu (lam <= mu in the dominance order).

    Prefix-sum test: for every component i and row count l,
    sum_{j<i} |lam^(j)| + lam^(i)_1 + ... + lam^(i)_l must not exceed the
    same expression for mu.
    """
    lam = _as_multipartition(lam)
    mu = _as_multipartition(mu)
    if len(lam) != len(mu):
        raise ValueError("dominance needs equal levels")
    if size(lam) != size(mu):
        raise ValueError("dominance needs equal total size")
    head_l = 0
    head_m = 0
    for lc, mc in zip(lam, mu):
        acc_l, acc_m = head_l, head_m
        for row in range(max(len(lc), len(mc))):
            acc_l += lc[row] if row < len(lc) else 0
            acc_m += mc[row] if row < len(mc) else 0
            if acc_l > acc_m:
                return False
        head_l += sum(lc)
        head_m += sum(mc)
    return True


# -- index posets ----------------------------------------------------------------

@dataclass(frozen=True)
class IndexPair:
    f: int
    lam: Multipartition


class IndexPoset:
    """The pairs (f, lambda) with the two-clause comparison."""

    def __init__(self, pairs: List[IndexPair]):
        self.pairs = pairs

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    @staticmethod
    def geq(a: IndexPair, b: IndexPair) -> bool:
        """a >= b: higher contraction degree first, then dominance."""
        if a.f != b.f:
            return a.f > b.f
        return dominates(b.lam, a.lam)


def enumerate_index_poset(r: int, n: int, mode: str = "full",
                          d: Optional[int] = None) -> IndexPoset:
    """Pairs (f, lambda), f in 0..n//2, lambda an (r or d)-multipartition
    of n - 2f.

    mode "full": every f uses level r.  mode "semi": levels d for f >= 1
    and r for f = 0 (the truncated poset of the semi-admissible regime)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if mode not in ("full", "semi"):
        raise ValueError(f"unknown poset mode {mode!r}")
    if mode == "semi" and (d is None or not 0 <= d <= r):
        raise ValueError("mode 'semi' needs d with 0 <= d <= r")
    pairs = []
    for f in range(n // 2 + 1):
        level = r if (mode == "full" or f == 0) else d
        if level == 0:
            if n - 2 * f == 0:
                pairs.append(IndexPair(f, ()))
            continue
        for lam in enumerate_multipartitions(level, n - 2 * f):
            pairs.append(IndexPair(f, lam))
    return IndexPoset(pairs)


# -- multicharges and the Kleshchev recursion -------------------------------------

@dataclass(frozen=True)
class Multicharge:
    e: Optional[int]                 # None = infinite quantum characteristic
    charges: Tuple[int, ...]

    def __post_init__(self):
        if self.e is not None:
            if self.e < 2:
                raise ValueError("e must be >= 2 (q^2 = 1 is rejected)")
            object.__setattr__(self, "charges",
                               tuple(s % self.e for s in self.charges))

    @property
    def level(self) -> int:
        return len(self.charges)

    def residue(self, row: int, col: int, comp: int) -> int:
        res = col - row + self.charges[comp]
        return res % self.e if self.e is not None else res

    @staticmethod
    def from_parameters(p: ParameterSet) -> "Multicharge":
        """Discrete logs s_j with u_j = q^{2 s_j}; rejects anything else, and
        over GF(p) any q^2 whose order has a prime factor above
        DISCRETE_LOG_PRIME_LIMIT."""
        q2 = p.q * p.q
        if p.e is not None:
            largest = max(factorint(p.e), default=1)
            if largest > DISCRETE_LOG_PRIME_LIMIT:
                raise MultichargeScopeError(
                    f"q^2 has order {p.e}, whose prime factor {largest} is above "
                    f"{DISCRETE_LOG_PRIME_LIMIT}: the charges are discrete logs in a "
                    "group of that prime order, out of reach")
        charges = []
        for uj in p.u:
            found = None
            if p.e is not None:
                try:
                    found = discrete_log(p.field.p, uj.value, q2.value)
                except ValueError:   # u_j is not in the group q^2 generates
                    pass
            else:
                # over Q, q^2 is a positive rational other than 1: the height
                # max(|numerator|, denominator) of q^{2s} is H(q^2)^|s| >= 2^|s|,
                # so |s| is the k <= bit length of H(u_j) with H(q^2)^k = H(u_j)
                height, base = (max(abs(x.numerator), x.denominator)
                                for x in (uj.value, q2.value))
                k, power = 0, 1
                while power < height:
                    k, power = k + 1, power * base
                found = next((s for s in (k, -k) if q2**s == uj), None)
            if found is None:
                raise MultichargeScopeError(
                    f"u = {uj} is not an integral power of q^2; the Kleshchev "
                    "test applies only to u_j = q^{2 s_j} (reductions to that "
                    "case are out of scope)")
            charges.append(found)
        return Multicharge(p.e, tuple(charges))

    def consistent_with(self, p: ParameterSet) -> bool:
        if self.level != p.r or self.e != p.e:
            return False
        q2 = p.q * p.q
        return all(q2**s == uj for s, uj in zip(self.charges, p.u))


def _addable_nodes(lam: Multipartition):
    for c, comp in enumerate(lam):
        for a in range(1, len(comp) + 2):
            cur = comp[a - 1] if a - 1 < len(comp) else 0
            above = comp[a - 2] if a >= 2 else None
            if a == 1 or (above is not None and above > cur):
                yield (c, a, cur + 1)


def _removable_nodes(lam: Multipartition):
    for c, comp in enumerate(lam):
        for a in range(1, len(comp) + 1):
            below = comp[a] if a < len(comp) else 0
            if comp[a - 1] > below:
                yield (c, a, comp[a - 1])


def _good_node(lam: Multipartition, mc: Multicharge, i: int):
    """The good i-node (component, row) or None.

    Signature read by (component, row); adjacent "-+" cancel; good node is
    the first surviving "-".
    """
    events = []
    for (c, a, b) in _addable_nodes(lam):
        if mc.residue(a, b, c) == i:
            events.append((c, a, "+", None))
    for (c, a, b) in _removable_nodes(lam):
        if mc.residue(a, b, c) == i:
            events.append((c, a, "-", (c, a)))
    events.sort(key=lambda t: (t[0], t[1]))
    stack = []
    for ev in events:
        if ev[2] == "+" and stack and stack[-1][2] == "-":
            stack.pop()
        else:
            stack.append(ev)
    for ev in stack:
        if ev[2] == "-":
            return ev[3]
    return None


def _remove_node(lam: Multipartition, node) -> Multipartition:
    c, a = node
    comp = list(lam[c])
    comp[a - 1] -= 1
    while comp and comp[-1] == 0:
        comp.pop()
    return lam[:c] + (tuple(comp),) + lam[c + 1:]


def is_kleshchev(lam, mc: Multicharge) -> bool:
    """Reachability of lambda from the empty multipartition by good nodes.

    Removing any single good node preserves membership in the highest
    weight crystal component, so one deterministic good-node removal per
    step decides the question in |lambda| steps.
    """
    lam = _as_multipartition(lam)
    if len(lam) != mc.level:
        raise ValueError("multipartition level does not match the multicharge")
    while size(lam):
        residues = sorted({mc.residue(a, b, c)
                           for (c, a, b) in _removable_nodes(lam)})
        node = None
        for i in residues:
            node = _good_node(lam, mc, i)
            if node is not None:
                break
        if node is None:
            return False
        lam = _remove_node(lam, node)
    return True


def e_restricted(lam: Partition, e: Optional[int]) -> bool:
    """Level-1 oracle: successive part differences below e."""
    if e is None:
        return True
    parts = tuple(lam) + (0,)
    return all(parts[i] - parts[i + 1] < e for i in range(len(parts) - 1))


# -- multisegments ------------------------------------------------------------------

Segment = Tuple[int, int]                  # (start residue, length >= 1)
Multisegment = Tuple[Segment, ...]         # canonically sorted multiset


def segment_key(seg: Segment):
    return (-seg[1], seg[0])


def is_aperiodic(ms: Sequence[Segment], e: Optional[int]) -> bool:
    """For every occurring length j, some run [i..i+j-1] is absent from ms.

    With infinitely many residues this is vacuous; for finite e the test is
    that the distinct starting residues of length-j members do not exhaust
    Z_e.  Lengths that do not occur impose nothing.
    """
    if e is None:
        return True
    if e < 2:
        raise ValueError("e must be >= 2")
    starts: Dict[int, set] = {}
    for (start, length) in ms:
        starts.setdefault(length, set()).add(start % e)
    return all(len(seen) < e for seen in starts.values())


def enumerate_multisegments(e: Optional[int], n: int,
                            window: Optional[Tuple[int, int]] = None) -> List[Multisegment]:
    """All multisegments of total length n (no aperiodicity filter).

    Finite e: starts range over Z_e.  Infinite e needs a caller-supplied
    inclusive window of starting residues, otherwise the set is infinite.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if e is None:
        if window is None:
            raise ValueError("infinite e needs a residue window for enumeration")
        start_range = range(window[0], window[1] + 1)
    else:
        if e < 2:
            raise ValueError("e must be >= 2")
        start_range = range(e)
    universe = [(s, j) for j in range(n, 0, -1) for s in start_range]
    universe.sort(key=segment_key)
    out: List[Multisegment] = []

    def rec(idx, rest, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for k in range(idx, len(universe)):
            seg = universe[k]
            if seg[1] <= rest:
                acc.append(seg)
                rec(k, rest - seg[1], acc)
                acc.pop()

    rec(0, n, [])
    return out


def enumerate_aperiodic(e: Optional[int], n: int,
                        window: Optional[Tuple[int, int]] = None) -> List[Multisegment]:
    """The aperiodic multisegments of total length n."""
    return [ms for ms in enumerate_multisegments(e, n, window=window)
            if is_aperiodic(ms, e)]


# -- classifications -----------------------------------------------------------------

@dataclass(frozen=True)
class AffineEntry:
    f: int
    segments: Multisegment
    established: bool    # True at f = 0 and f = n//2; in between the pair is
                         # a necessary label only


def classify_affine(n: int, e: Optional[int], omega_all_zero: bool,
                    window: Optional[Tuple[int, int]] = None) -> List[AffineEntry]:
    """Index pairs (f, aperiodic multisegment of n - 2f).

    When the whole omega-sequence vanishes and n is even, f = n/2 drops
    out.  Entries with 0 < f < n//2 carry established=False: membership is
    necessary but not proven sufficient without an admissibility witness.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for f in range(n // 2 + 1):
        if omega_all_zero and n % 2 == 0 and f == n // 2:
            continue
        for ms in enumerate_aperiodic(e, n - 2 * f, window=window):
            out.append(AffineEntry(f, ms, established=(f == 0 or f == n // 2)))
    return out


def classify_cyclotomic(p: ParameterSet, mc: Multicharge, n: int) -> List[IndexPair]:
    """Index pairs (f, lambda) with lambda Kleshchev of n - 2f.

    The contraction range follows the omega-vanishing case split: all of
    0..n//2 normally, but strictly below n/2 when every omega vanishes and
    n is even."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not mc.consistent_with(p):
        raise MultichargeScopeError(
            "multicharge is inconsistent with the parameter set "
            "(level, e, or u_j != q^{2 s_j})")
    all_zero, _ = omega_vanishing_report(p)
    out = []
    for f in range(n // 2 + 1):
        if all_zero and n % 2 == 0 and f == n // 2:
            continue
        for lam in enumerate_multipartitions(p.r, n - 2 * f):
            if is_kleshchev(lam, mc):
                out.append(IndexPair(f, lam))
    return out


# -- diff-stable table emitters ---------------------------------------------------------

def multipartition_str(lam: Multipartition) -> str:
    return "|".join(",".join(str(x) for x in comp) if comp else "-"
                    for comp in lam)


def segments_str(ms: Multisegment) -> str:
    return " ".join(f"[{s}:{j}]" for (s, j) in ms) if ms else "-"


def cyclotomic_rows(entries: List[IndexPair]) -> List[dict]:
    return [{"f": ent.f, "lambda": multipartition_str(ent.lam), "kleshchev": True}
            for ent in entries]


def affine_rows(entries: List[AffineEntry]) -> List[dict]:
    return [{"f": ent.f, "segments": segments_str(ent.segments),
             "established": ent.established}
            for ent in entries]
