"""The acceptance matrix, runnable end to end.

Each criterion is a function returning (passed, detail); `run_all` drives
them with one shared fixture context so algebras are built once.  The
pytest suite and the `verify` CLI command both call into this module, so
there is a single source of truth for what "done" means.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .fields import GF
from .params import (ParameterSet, admissible_rho, alpha_candidates, check_admissible,
                     gamma_weights)
from .presentation import (E, StructureAlgebra, build_algebra, check_omega_relations,
                           corner_algebra, gen_count, ideal_generated_by,
                           semi_admissibility_degree, truncation_idempotent)
from .repn import (DEFAULT_SEED, functor_grading_check, radical, simple_modules,
                   wedderburn)
from .combinatorics import (Multicharge, classify_affine, classify_cyclotomic,
                            dominates, e_restricted, enumerate_aperiodic,
                            enumerate_multipartitions, enumerate_multisegments,
                            is_aperiodic, is_kleshchev, partitions)

P = 101
F = GF(P)
_Q = F(2)                     # primitive root mod 101: order 100 > 2n for n <= 4
_Q_ODD = F(16)                # order 25, so q^{-1} lies in <q^2>


def generic_parameters(r: int, sep: int = 4) -> ParameterSet:
    """Admissible GF(101) parameters with well-separated multicharge."""
    u = [(_Q * _Q) ** (1 + sep * i) for i in range(r)]
    return ParameterSet(F, _Q, admissible_rho(_Q, u), u, admissible=True)


def semi_parameters() -> ParameterSet:
    """(r, d) = (2, 1): level-1 admissible base extended by one extra root."""
    base = generic_parameters(1)
    return ParameterSet.semi_admissible(base, [F(16)])


def omega_zero_parameters() -> ParameterSet:
    """All-omega-zero admissible r = 1 set (rho = q forces omega_0 = 0)."""
    return ParameterSet(F, _Q_ODD, _Q_ODD, [_Q_ODD.inv()], admissible=True)


DIMENSION_TARGETS = {
    (1, 2): 3, (1, 3): 15, (1, 4): 105, (2, 2): 12, (2, 3): 120, (3, 2): 27,
}


class Context:
    """Caches built algebras and analyses across criteria."""

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = seed
        self._algebras: Dict[tuple, StructureAlgebra] = {}
        self._analyses: Dict[tuple, object] = {}

    def algebra(self, r: int, n: int, variant: str = "bmw") -> StructureAlgebra:
        key = (r, n, variant)
        if key not in self._algebras:
            self._algebras[key] = build_algebra(n, generic_parameters(r), variant=variant)
        return self._algebras[key]

    def analysis(self, r: int, n: int):
        key = (r, n)
        if key not in self._analyses:
            A = self.algebra(r, n)
            self._analyses[key] = wedderburn(A, radical(A), seed=self.seed)
        return self._analyses[key]


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    detail: str
    seconds: float


def _crit_dims(ctx: Context) -> Tuple[bool, str]:
    t0 = time.monotonic()
    got = {}
    for (r, n), want in DIMENSION_TARGETS.items():
        A = ctx.algebra(r, n)
        got[(r, n)] = A.dim
    elapsed = time.monotonic() - t0
    ok = got == DIMENSION_TARGETS and elapsed < 60.0
    return ok, f"dims {got} (targets {DIMENSION_TARGETS}), {elapsed:.1f}s < 60s"


def _crit_semi(ctx: Context) -> Tuple[bool, str]:
    t0 = time.monotonic()
    semi = semi_parameters()
    d = semi_admissibility_degree(semi)
    dims = {n: build_algebra(n, semi).dim for n in (2, 3)}
    d_adm = {r: semi_admissibility_degree(generic_parameters(r)) for r in (1, 2, 3)}
    elapsed = time.monotonic() - t0
    ok = (d == 1 and dims == {2: 9, 3: 57}
          and all(d_adm[r] == r for r in d_adm) and elapsed < 60.0)
    return ok, (f"semi d={d} dims={dims} (want 9/57); admissible d={d_adm}; "
                f"{elapsed:.1f}s")


def _crit_omega(ctx: Context) -> Tuple[bool, str]:
    failures = []
    for (r, n) in DIMENSION_TARGETS:
        p = generic_parameters(r)
        rep = check_omega_relations(ctx.algebra(r, n), p, 2 * r)
        if not rep.passed:
            failures.append(f"B_{{{r},{n}}}: a={rep.failures}")
    rng = random.Random(ctx.seed)
    sampled = 0
    while sampled < 120:
        r = rng.choice((1, 2, 3))
        q = F(rng.randrange(2, P))
        if (q * q) == F(1):
            continue
        u = []
        while len(u) < r:
            cand = F(rng.randrange(1, P))
            if cand not in u:
                u.append(cand)
        rho = admissible_rho(q, u, rng.choice(alpha_candidates(q, r)))
        try:
            p = ParameterSet(F, q, rho, u, admissible=True)
        except Exception as exc:
            failures.append(f"sample rejected: {exc}")
            break
        rep = check_admissible(p)
        gam = gamma_weights(p)
        om0 = sum(gam, F(0))
        if not (rep.passed and rep.omega0_formula == p.omega0 == om0):
            failures.append(f"omega_0 mismatch at q={q} u={[str(x) for x in u]}")
        sampled += 1
    ok = not failures and sampled >= 100
    return ok, (f"pole relations on all instances up to a=2r; {sampled} random "
                f"admissible sets cross-checked" + ("" if ok else f"; FAIL {failures[:3]}"))


def _crit_truncation(ctx: Context) -> Tuple[bool, str]:
    t0 = time.monotonic()
    notes = []
    ok = True
    for r in (1, 2):
        p = generic_parameters(r)
        A = ctx.algebra(r, 3)
        e = truncation_idempotent(A, p)       # verifies e^2 = e internally
        C = corner_algebra(A, e)
        want = build_algebra(1, p).dim
        notes.append(f"corner B_{{{r},3}} dim {C.dim} (want {want})")
        ok = ok and C.dim == want == r
    p0 = omega_zero_parameters()
    A0 = build_algebra(3, p0)
    e0 = truncation_idempotent(A0, p0)        # omega_0 = 0 branch
    C0 = corner_algebra(A0, e0)
    notes.append(f"omega0=0 branch idempotent ok, corner dim {C0.dim}")
    ok = ok and C0.dim == 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    return ok, "; ".join(notes) + f"; {elapsed:.1f}s"


def _crit_ideal(ctx: Context) -> Tuple[bool, str]:
    semi = semi_parameters()
    got = {}
    for n, want in ((2, 1), (3, 9)):
        A = build_algebra(n, semi)
        e1 = A.nf_word(bytes((E(1, n),)))
        dim, _ = ideal_generated_by(A, e1)
        got[n] = (dim, want)
    ok = all(d == w for d, w in got.values())
    return ok, f"dim<e1> semi-admissible: {got}"


def _crit_simples(ctx: Context) -> Tuple[bool, str]:
    notes = []
    ok = True
    for (r, n) in DIMENSION_TARGETS:
        p = generic_parameters(r)
        rep = ctx.analysis(r, n)
        mc = Multicharge.from_parameters(p)
        cls = classify_cyclotomic(p, mc, n)
        match = rep.split and len(rep.blocks) == len(cls)
        ok = ok and match
        notes.append(f"B_{{{r},{n}}}: {len(rep.blocks)} blocks vs {len(cls)} "
                     f"(split={rep.split})")
    rep12 = ctx.analysis(1, 2)
    rep13 = ctx.analysis(1, 3)
    ok = ok and len(rep12.blocks) == 3
    ok = ok and sorted(rep13.blocks, reverse=True) == [3, 2, 1, 1]
    ok = ok and sum(d * d for d in rep13.blocks) == 15
    notes.append(f"B_{{1,3}} blocks {rep13.block_dims_sorted()}")
    return ok, "; ".join(notes)


def _crit_functor(ctx: Context) -> Tuple[bool, str]:
    p = generic_parameters(1)
    A = ctx.algebra(1, 3)
    e = truncation_idempotent(A, p)
    C = corner_algebra(A, e)
    rep = ctx.analysis(1, 3)
    simples = simple_modules(A, rep)
    fr = functor_grading_check(C, simples, e, seed=ctx.seed)
    cls = classify_cyclotomic(p, Multicharge.from_parameters(p), 3)
    f0 = sum(1 for ent in cls if ent.f == 0)
    ok = (fr.annihilated == f0 == 3 and len(fr.survivors) == 1
          and fr.survivors[0] == (1, True))
    return ok, (f"annihilated {fr.annihilated} (f=0 count {f0}), "
                f"survivors {fr.survivors}")


def _crit_combinatorics(ctx: Context) -> Tuple[bool, str]:
    t0 = time.monotonic()
    for e in (2, 3, 4, None):
        for n in range(9):
            for lam in partitions(n):
                if is_kleshchev((lam,), Multicharge(e, (0,))) != e_restricted(lam, e):
                    return False, f"level-1 mismatch at e={e}, lambda={lam}"
    for e in (2, 3):
        for n in range(7):
            brute = [ms for ms in enumerate_multisegments(e, n) if is_aperiodic(ms, e)]
            if enumerate_aperiodic(e, n) != brute:
                return False, f"aperiodic enumeration mismatch at e={e}, n={n}"
    if len(enumerate_aperiodic(2, 1)) != 2 or len(enumerate_aperiodic(2, 2)) != 4:
        return False, "|M_2^1| or |M_2^2| wrong"
    for n in (2, 4, 6):
        entries = classify_affine(n, 2, omega_all_zero=True)
        if any(ent.f == n // 2 for ent in entries):
            return False, f"parity exclusion violated at n={n}"
        with_f = classify_affine(n, 2, omega_all_zero=False)
        if not any(ent.f == n // 2 for ent in with_f):
            return False, f"f=n/2 missing when omegas are nonzero, n={n}"
    elapsed = time.monotonic() - t0
    return elapsed < 120.0, (f"level-1 oracle, brute-force aperiodic filter, "
                             f"parity exclusion; {elapsed:.1f}s < 120s")


def _crit_properties(ctx: Context) -> Tuple[bool, str]:
    t0 = time.monotonic()
    rng = random.Random(ctx.seed)
    for (r, n) in DIMENSION_TARGETS:
        A = ctx.algebra(r, n)
        one = F.one()
        for _ in range(1000):
            i, j, k = (rng.randrange(A.dim) for _ in range(3))
            left = A.mul(A.mul({i: one}, {j: one}), {k: one})
            right = A.mul({i: one}, A.mul({j: one}, {k: one}))
            if not np.array_equal(left, right):
                return False, f"associativity fails in B_{{{r},{n}}} at {(i, j, k)}"
        for name, coords in A.gens.items():
            if not np.array_equal(A.star(coords), coords):
                return False, f"* moves generator {name} in B_{{{r},{n}}}"
        for _ in range(200):
            a = {rng.randrange(A.dim): F.of_int(rng.randrange(1, P))}
            b = {rng.randrange(A.dim): F.of_int(rng.randrange(1, P))}
            if not np.array_equal(A.star(A.mul(a, b)), A.mul(A.star(b), A.star(a))):
                return False, f"*(ab) != b*a* in B_{{{r},{n}}}"
    # dominance is a partial order: exhaustive for m <= 5, r <= 2
    for r in (1, 2):
        for m in range(6):
            mps = enumerate_multipartitions(r, m)
            for lam in mps:
                if not dominates(lam, lam):
                    return False, "dominance not reflexive"
            for lam in mps:
                for mu in mps:
                    if dominates(lam, mu) and dominates(mu, lam) and lam != mu:
                        return False, "dominance not antisymmetric"
                    for nu in mps:
                        if (dominates(lam, mu) and dominates(mu, nu)
                                and not dominates(lam, nu)):
                            return False, "dominance not transitive"
    # normal form: idempotent and linear on random elements
    A = ctx.algebra(2, 2)
    rules = A.rules
    gens = list(range(gen_count(A.n)))
    for _ in range(1000):
        word1 = bytes(rng.choice(gens) for _ in range(rng.randrange(0, 7)))
        word2 = bytes(rng.choice(gens) for _ in range(rng.randrange(0, 7)))
        c1, c2 = F.of_int(rng.randrange(1, P)), F.of_int(rng.randrange(1, P))
        nf1 = rules.reduce(F.lincomb(((1, {word1: c1}), (1, {word2: c2}))))
        if rules.reduce(nf1) != nf1:
            return False, "normal form not idempotent"
        parts = rules.reduce({word1: c1}), rules.reduce({word2: c2})
        if F.lincomb(((1, parts[0]), (1, parts[1]))) != nf1:
            return False, "normal form not linear"
    elapsed = time.monotonic() - t0
    return elapsed < 120.0, f"associativity/star/dominance/normal-form; {elapsed:.1f}s < 120s"


CRITERIA: List[Tuple[str, str, Callable]] = [
    ("dims", "dimension formula r^n (2n-1)!! on the six-instance matrix", _crit_dims),
    ("semi", "semi-admissible dimensions 9/57 and degree d", _crit_semi),
    ("omega", "pole relations and the two omega_0 formulas", _crit_omega),
    ("truncation", "truncation idempotent and corner dimensions", _crit_truncation),
    ("ideal", "ideal <e_1> dimension in the semi-admissible tower", _crit_ideal),
    ("simples", "simple-count cross-validation against the index sets", _crit_simples),
    ("functor", "truncation functor grading on B_{1,3}", _crit_functor),
    ("combinatorics", "Kleshchev/aperiodic/parity oracles", _crit_combinatorics),
    ("properties", "associativity, anti-involution, dominance, normal form", _crit_properties),
]


def run_all(seed: int = DEFAULT_SEED,
            only: Optional[List[str]] = None) -> List[CriterionResult]:
    ctx = Context(seed=seed)
    results = []
    for cid, title, fn in CRITERIA:
        if only is not None and cid not in only:
            continue
        t0 = time.monotonic()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:     # a crash is a failure, reported not raised
            passed, detail = False, f"exception: {type(exc).__name__}: {exc}"
        results.append(CriterionResult(cid, title, passed, detail, time.monotonic() - t0))
    return results
