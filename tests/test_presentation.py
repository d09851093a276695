import hashlib
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from test_rewriting import pairwise_overlaps

from cycbmw import presentation, rewriting
from cycbmw.acceptance import generic_parameters, omega_zero_parameters, semi_parameters
from cycbmw.fields import GF, QQ
from cycbmw.linalg import RowBasis, fraction_free, reduce_mod
from cycbmw.params import ParameterSet, omega
from cycbmw.presentation import (BuildError, E, G, X, StructureAlgebra, build_algebra,
                                 canonical_relations, check_omega_relations,
                                 corner_algebra, default_degree_cap, dump_algebra,
                                 dumps_algebra, ideal_generated_by, load_algebra,
                                 select_orientation13, semi_admissibility_degree,
                                 truncation_idempotent, word_str)
from cycbmw.rewriting import CompletionError, RewriteSystem, complete

F = GF(101)


def generic(r, sep=4, field=F):
    q = field(2)
    u = [(q * q) ** (1 + sep * i) for i in range(r)]
    prod = field(1)
    for x in u:
        prod = prod * x
    alpha = field(1) if r % 2 else q.inv()
    rho = (alpha * prod).inv()
    return ParameterSet(field, q, rho, u, admissible=True)


def omega_zero():
    q = F(16)
    return ParameterSet(F, q, q, [q.inv()], admissible=True)


def semi_21():
    base = generic(1)
    return ParameterSet.semi_admissible(base, [F(16)])


DIMS = {(1, 2): 3, (1, 3): 15, (1, 4): 105, (2, 2): 12, (2, 3): 120, (3, 2): 27}


@pytest.fixture(scope="module")
def algebras():
    return {(r, n): build_algebra(n, generic(r)) for (r, n) in DIMS}


def test_dimension_formula(algebras):
    for (r, n), want in DIMS.items():
        assert algebras[(r, n)].dim == want


def test_rational_build():
    p = ParameterSet(QQ, 2, "1/3", [3], admissible=True)
    A = build_algebra(2, p)
    assert A.dim == 3
    assert sorted(A.labels) == ["1", "e1", "g1"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_coefficients_are_residues(n):
    for p in (generic_parameters(1), generic_parameters(2), generic_parameters(3),
              semi_parameters()):
        for variant in ("bmw", "ariki_koike"):
            for eq in canonical_relations(n, p, variant=variant):
                assert eq and all(type(c) is int and 0 < c < p.field.p for c in eq.values())


def test_relations_as_stated():
    p = generic(1)
    eqs = canonical_relations(2, p)
    # r=1 cyclotomic collapse: x1 -> u1
    x = bytes((X(2),))
    assert any(set(eq) == {x, b""} for eq in eqs)
    # e1 e1 -> omega_0 e1 present
    e1 = bytes((E(1, 2),))
    assert any(set(eq) == {e1 + e1, e1} for eq in eqs)


def test_g_inverse_cofactor(algebras):
    # (g - g^{-1}) - delta(1 - e) normalizes to 0 with g^{-1} = g - delta + delta e
    A = algebras[(2, 2)]
    p = A.params
    f = A.field
    g1 = bytes((G(1, 2),))
    e1 = bytes((E(1, 2),))
    ginv = {g1: f.one(), b"": f.neg(p.delta.value), e1: p.delta.value}
    prod = A.mul(A.nf_word(g1), A.nf_element(ginv))
    assert np.array_equal(prod, A.unit())
    prod2 = A.mul(A.nf_element(ginv), A.nf_word(g1))
    assert np.array_equal(prod2, A.unit())


def test_orientation13_selection():
    p = generic(2)
    assert select_orientation13(p) == "x1"
    A = build_algebra(2, p)
    assert A.meta["relation13_orientation"] == "x1"
    with pytest.raises(BuildError, match="one reading 'x1', not 'x1inv'"):
        canonical_relations(2, p, orientation13="x1inv")


def _up_to_scalar(eq, m):
    """The relation eq (== 0) over GF(m) scaled so that its least word has
    coefficient 1, as a set of (word, coefficient)."""
    inv = pow(eq[min(eq)], -1, m)
    return frozenset((w, c * inv % m) for w, c in eq.items())


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("variant", ["bmw", "ariki_koike"])
def test_relations_are_closed_under_word_reversal(n, variant):
    # the reading of relation (13) that makes the anti-involution fixing the
    # generators (StructureAlgebra.star) well defined
    for p in (generic_parameters(1), generic_parameters(2), generic_parameters(3),
              semi_parameters(), omega_zero_parameters()):
        m, eqs = p.field.p, canonical_relations(n, p, variant=variant)
        closed = {_up_to_scalar(eq, m) for eq in eqs}
        assert all(_up_to_scalar({w[::-1]: c for w, c in eq.items()}, m) in closed
                   for eq in eqs)


def test_omega_relations(algebras):
    for (r, n), A in algebras.items():
        rep = check_omega_relations(A, A.params, 2 * r)
        assert rep.passed, (r, n, rep.failures)


def test_omega_relation_scalar_example(algebras):
    # r=1: e1 x1 e1 = u1 omega_0 e1 since x1 = u1
    A = algebras[(1, 2)]
    p = A.params
    e1 = bytes((E(1, 2),))
    x = bytes((X(2),))
    lhs = A.nf_word(e1 + x + e1)
    scale = (p.u[0] * p.omega0).value
    rhs = [A.field.mul(scale, c) for c in A.nf_word(e1).tolist()]
    assert lhs.tolist() == rhs


def test_normal_form_multiplicative(algebras):
    A = algebras[(2, 2)]
    f = A.field
    rng = random.Random(4)
    import cycbmw.presentation as P
    for _ in range(100):
        w1 = bytes(rng.randrange(P.gen_count(2)) for _ in range(rng.randrange(5)))
        w2 = bytes(rng.randrange(P.gen_count(2)) for _ in range(rng.randrange(5)))
        a = A.nf_word(w1)
        b = A.nf_word(w2)
        assert np.array_equal(A.mul(a, b), A.nf_word(w1 + w2))


def test_star_involution(algebras):
    # near the int64 bound, star hands its coefficients back to rewriting,
    # whose raw sums of products would wrap on numpy scalars
    for A in (algebras[(2, 3)], build_algebra(3, generic(2, field=GF(3037000493)))):
        f = A.field
        rng = random.Random(8)
        for name, coords in A.gens.items():
            assert np.array_equal(A.star(coords), coords)
        for _ in range(100):
            a = {rng.randrange(A.dim): f.of_int(rng.randrange(1, f.p))}
            b = {rng.randrange(A.dim): f.of_int(rng.randrange(1, f.p))}
            assert np.array_equal(A.star(A.mul(a, b)), A.mul(A.star(b), A.star(a)))
            assert np.array_equal(A.star(A.star(a)), A.dense(a))
        # every basis word at once: reversed words meet when they are rewritten
        x = A.dense({i: f.of_int(rng.randrange(1, f.p)) for i in range(A.dim)})
        assert np.array_equal(A.star(A.star(x)), x)


def test_ariki_koike_dims():
    for (r, n), want in (((1, 3), 6), ((2, 2), 8), ((2, 3), 48)):
        A = build_algebra(n, generic(r), variant="ariki_koike")
        assert A.dim == want
        # every e_i is annihilated
        for i in range(1, n):
            assert not A.nf_word(bytes((E(i, n),))).any()


def test_n1_commutative_case():
    p = generic(3)
    A = build_algebra(1, p)
    assert A.dim == 3
    assert A.labels == ["1", "x1", "x1.x1"]


def test_semi_admissibility_degree():
    assert semi_admissibility_degree(semi_21()) == 1
    assert semi_admissibility_degree(generic(2)) == 2
    assert semi_admissibility_degree(generic(1)) == 1


def test_degree_zero_collapses_to_hecke():
    # rho unrelated to u: relation (13) forces e_1 = 0 and the quotient is
    # the cyclotomic Hecke algebra
    p = ParameterSet(QQ, 2, 5, [3], admissible=False)
    assert semi_admissibility_degree(p) == 0
    A = build_algebra(2, p)
    assert A.dim == 2
    assert not A.nf_word(bytes((E(1, 2),))).any()


def test_semi_dimensions_and_report():
    semi = semi_21()
    A2 = build_algebra(2, semi)
    A3 = build_algebra(3, semi)
    assert A2.dim == 9 and A3.dim == 57
    assert A2.meta["expected_dimension"] == 9
    assert A2.meta["expected_rule"] == "semi-admissible-rank"
    # the pole relations still hold with the recurrence-extended omegas
    assert check_omega_relations(A2, semi, 4).passed


def test_rational_r2_build():
    q2 = QQ(2)
    u = [QQ(3), QQ(5)]
    rho = (q2.inv() * u[0] * u[1]).inv()
    p = ParameterSet(QQ, q2, rho, u, admissible=True)
    A = build_algebra(2, p)
    assert A.dim == 12
    assert check_omega_relations(A, p, 4).passed


def test_ideal_dimensions():
    semi = semi_21()
    for n, want in ((2, 1), (3, 9)):
        A = build_algebra(n, semi)
        e1 = A.nf_word(bytes((E(1, n),)))
        dim, rows = ideal_generated_by(A, e1)
        assert dim == want
    A = build_algebra(2, generic(1))
    assert ideal_generated_by(A, {})[0] == 0
    assert ideal_generated_by(A, A.unit())[0] == A.dim


def test_truncation_idempotent_branches(algebras):
    p = generic(1)
    A = algebras[(1, 3)]
    e = truncation_idempotent(A, p)
    assert np.array_equal(A.mul(e, e), e)
    # omega_0 = 0 branch with compatible parameters
    p0 = omega_zero()
    assert p0.omega0.is_zero()
    A0 = build_algebra(3, p0)
    e0 = truncation_idempotent(A0, p0)
    assert np.array_equal(A0.mul(e0, e0), e0)
    with pytest.raises(BuildError):
        truncation_idempotent(build_algebra(2, p0), p0)    # needs n >= 3


def test_corner_dimensions(algebras):
    for r in (1, 2):
        p = generic(r)
        A = algebras[(r, 3)]
        e = truncation_idempotent(A, p)
        C = corner_algebra(A, e)
        assert C.dim == build_algebra(1, p).dim == r
        assert np.array_equal(C.mul(C.unit(), C.unit()), C.unit())
    # e = 1 gives back the whole algebra
    A = algebras[(1, 2)]
    C = corner_algebra(A, A.unit())
    assert C.dim == A.dim


@pytest.mark.parametrize("case", ["b13", "b23", "omega0", "unit_b12"])
def test_corner_table_matches_pairwise_products(algebras, case):
    if case == "omega0":
        A = build_algebra(3, omega_zero())
        e = truncation_idempotent(A, A.params)
    elif case == "unit_b12":
        A = algebras[(1, 2)]
        e = A.unit()
    else:
        A = algebras[(int(case[1]), int(case[2]))]
        e = truncation_idempotent(A, A.params)
    C = corner_algebra(A, e)
    # the table the pairwise way: coordinates of each product of two rows
    rows = C.meta["parent_rows"]
    basis = RowBasis(rows, A.field)
    for i in range(C.dim):
        for j in range(C.dim):
            coords = basis.coords(A.mul(rows[i], rows[j]))
            assert C.product(i, j) == tuple((k, c) for k, c in enumerate(coords) if c)
    assert C.unit().tolist() == basis.coords(e).tolist()
    assert C.labels == [f"c{i}" for i in range(C.dim)]


def test_from_rows_rejects_rows_not_closed(algebras):
    A = algebras[(1, 2)]
    g1 = A.nf_word(bytes((G(1, 2),)))
    with pytest.raises(BuildError):
        StructureAlgebra.from_rows(A, np.array([A.dense(g1)]), A.unit())
    # the unit too must lie in the span
    e1 = A.nf_word(bytes((E(1, 2),)))
    e = reduce_mod(A.params.omega0.inv().value * e1, A.field.p)
    with pytest.raises(BuildError):
        StructureAlgebra.from_rows(A, np.array([e]), A.unit())
    with pytest.raises(BuildError):
        StructureAlgebra.from_rows(A, [], A.unit())
    assert StructureAlgebra.from_rows(A, np.array([e]), e).dim == 1


def test_from_table_rejects_incomplete_table():
    one = F.one()
    table = {(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),)}
    with pytest.raises(BuildError, match="incomplete"):
        StructureAlgebra.from_table(F, table, 2, {0: one})
    table[(1, 1)] = ()
    assert StructureAlgebra.from_table(F, table, 2, {0: one}).dim == 2


def test_corner_requires_idempotent(algebras):
    A = algebras[(1, 2)]
    g1 = A.nf_word(bytes((G(1, 2),)))
    with pytest.raises(BuildError):
        corner_algebra(A, g1)
    # the zero element squares to itself but spans no corner
    with pytest.raises(BuildError, match="nonzero idempotent"):
        corner_algebra(A, A.dense({}))


def test_dump_canonical_and_loadable(algebras):
    A = build_algebra(2, generic(1))
    s1 = dumps_algebra(A)
    s2 = dumps_algebra(build_algebra(2, generic(1)))
    assert s1 == s2
    blob = json.loads(s1)
    L = load_algebra(blob)
    assert L.dim == A.dim
    # products agree
    f = A.field
    for i in range(A.dim):
        for j in range(A.dim):
            assert L.product(i, j) == A.product(i, j)


def _concatenation_product(A, i, j):
    red = A.rules.reduce_word(A.basis.words[i] + A.basis.words[j])
    return tuple(sorted((A.basis.index[w], c) for w, c in red.items()))


TABLE_CASES = {
    "gf101_b22": lambda: build_algebra(2, generic(2)),
    "gf101_ak_b14": lambda: build_algebra(4, generic(1), variant="ariki_koike"),
    "q_b13": lambda: build_algebra(3, ParameterSet(QQ, 2, "1/3", [3], admissible=True)),
}


@pytest.mark.parametrize("birth", ["materialized", "loaded"])
def test_structure_constants_are_the_only_copy(birth):
    A = TABLE_CASES["gf101_b22"]()
    if birth == "loaded":
        A = load_algebra(json.loads(dumps_algebra(A)))
    I, J, K, C, colstart = A.structure_constants()
    assert len(A._table) == A.dim and colstart[0] == 0 and colstart[-1] == len(C)
    for j, (Ij, Kj, Cj) in enumerate(A._table):
        # each column is a view of the joined arrays, not a copy
        assert np.shares_memory(Ij, I) and np.shares_memory(Kj, K) and np.shares_memory(Cj, C)
        lo, hi = colstart[j], colstart[j + 1]
        for col, whole in ((Ij, I), (Kj, K), (Cj, C)):
            assert col.tolist() == whole[lo:hi].tolist()
        assert (J[lo:hi] == j).all()


def test_numerators_are_made_with_the_constants():
    # over Q every birth stores C and its numerators together (`_store`)
    A = TABLE_CASES["q_b13"]()
    assert A._numerators is None
    A.materialize()
    L = load_algebra(json.loads(dumps_algebra(A)))
    columns = [A.right_matrix(A.dense({j: QQ.one()})) for j in range(A.dim)]
    B = StructureAlgebra.from_columns(QQ, columns, A.unit(), None, None, None)
    for alg in (A, L, B):
        N, d = alg._numerators
        want, d_want = fraction_free(alg.structure_constants()[3])
        assert d == d_want > 1 and N.tolist() == want.tolist()
    assert B.structure_constants()[3].tolist() == A.structure_constants()[3].tolist()


@pytest.mark.parametrize("birth", ["materialized", "loaded"])
@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_generator_action_table_is_concatenation_nf(case, birth):
    A = TABLE_CASES[case]()
    # nothing fills the table before it is read
    assert not A._table
    if birth == "materialized":
        A.materialize()
        B = A
    else:
        # the dump renders the constants, and the load rebuilds them
        B = load_algebra(json.loads(dumps_algebra(A)))
    for i in range(A.dim):
        for j in range(A.dim):
            assert B.product(i, j) == _concatenation_product(A, i, j), (i, j)


def _rational(u):
    """Admissible Q parameters with q = 2 and rho = (alpha prod u)^-1."""
    alpha = Fraction(1) if len(u) % 2 else Fraction(1, 2)
    return ParameterSet(QQ, 2, 1 / (alpha * math.prod(u)), list(u), admissible=True)


def _product_by_entries(A, a, b):
    """a b summed term by term from A.product(i, j) with Field.add/mul."""
    f, out = A.field, {}
    for i, ca in a.items():
        for j, cb in b.items():
            for k, c in A.product(i, j):
                out[k] = f.add(out.get(k, f.zero()), f.mul(f.mul(ca, cb), c))
    return {k: c for k, c in out.items() if not f.is_zero(c)}


@pytest.mark.parametrize("n,u", [(3, (1,)), (2, (1, 4, Fraction(1, 4)))],
                         ids=["q_b13", "q_b32"])
def test_q_gather_matches_entrywise_products(n, u):
    A = build_algebra(n, _rational(u))
    one = A.field.one()
    rng = random.Random(n)

    def element():
        support = rng.sample(range(A.dim), rng.randrange(1, 5))
        return {i: Fraction(rng.randrange(-50, 51) or 1, rng.choice([1, 3, 2**40, 7 * 2**70]))
                for i in support}

    unit = A.unit()
    elements = [element() for _ in range(6)] + [
        {i: c for i, c in enumerate(unit.tolist()) if c}, {}]
    for a in elements:
        R, L = A.right_matrix(a), A.left_matrix(a)
        assert all(type(c) is Fraction for M in (R, L) for c in M.flat)
        for i in range(A.dim):
            assert R[i].tolist() == A.dense(_product_by_entries(A, {i: one}, a)).tolist()
            assert L[i].tolist() == A.dense(_product_by_entries(A, a, {i: one})).tolist()
        for b in elements[:4]:
            ab = A.mul(a, b).tolist()
            assert ab == A.dense(_product_by_entries(A, a, b)).tolist()
            assert all(type(c) is Fraction for c in ab)


@pytest.fixture(scope="module")
def b33():
    return build_algebra(3, generic(3))


def test_frontier_b33_products(b33):
    A = b33
    assert A.dim == 405
    # pruning composite overlaps moves only the main loop's checked count
    stats = A.meta["completion"]
    assert (stats["rules_added"], stats["rules_removed"], stats["verification_ambiguities"],
            stats["passes"]) == (89, 19, 1311, 1)
    assert stats["ambiguities_pruned"] > 0 and stats["ambiguities_checked"] < 1372
    rng = random.Random(33)
    for _ in range(200):
        i, j = rng.randrange(A.dim), rng.randrange(A.dim)
        assert A.product(i, j) == _concatenation_product(A, i, j), (i, j)


def test_frontier_b33_table_digest(b33):
    # all 164,025 products: sha256 over the int64 bytes of I, J, K and C in
    # (i, j, k) order, recorded when the table was still filled one entry at
    # a time; the columns come in order of j, each in (i, k) order
    I, J, K, C, colstart = b33.structure_constants()
    assert len(C) == 4_860_364 and colstart[-1] == len(C)
    order = np.argsort(I, kind="stable")
    digest = hashlib.sha256()
    for a in (I, J, K, C):
        digest.update(np.ascontiguousarray(a[order], dtype=np.int64).tobytes())
    assert digest.hexdigest() == \
        "4fb19013560b1b691d23df6c2a0b29e8de4a1e4538e5ef0cb8ef2a50a70f8495"


def test_frontier_b33_dump_digest(b33):
    # the canonical text of all 164,025 products, recorded when the dump was
    # still json.dumps of one [k, c] list per constant
    data = dumps_algebra(b33).encode()
    assert len(data) == 53_164_498
    assert hashlib.sha256(data).hexdigest() == \
        "e7772d3ff4c82ce5b8b881da0de10f447406ef4f5231302fb2a34c1de4a0c9a9"


def test_frontier_b33_overlap_index(b33):
    pairwise = pairwise_overlaps(b33.rules)
    assert list(rewriting._overlap_triples(b33.rules)) == pairwise
    assert len(pairwise) == b33.meta["completion"]["verification_ambiguities"]


def test_frontier_b33_completion_statistics(b33):
    # every count of the main loop: a change to the order in which overlaps
    # are queued, or to how a self-overlap is deduplicated, moves them
    assert b33.meta["completion"] == {
        "rules_added": 89, "rules_removed": 19, "ambiguities_checked": 836,
        "ambiguities_pruned": 536, "verification_ambiguities": 1311,
        "max_rule_degree": 8, "passes": 1}


def test_probe_completion_is_reused(monkeypatch):
    monkeypatch.setattr(presentation, "_probe_cache", {})
    caps = []

    def counting_complete(eqs, field, degree_cap, **kw):
        caps.append(degree_cap)
        return complete(eqs, field, degree_cap, **kw)

    monkeypatch.setattr(presentation, "complete", counting_complete)
    p = generic(2)
    A = build_algebra(2, p)
    assert caps == [12]
    A.materialize()
    B = build_algebra(2, p)
    assert caps == [12]
    # a fresh algebra on the probe's rules: its own, still empty, table
    assert B is not A and not B._table and B.meta == A.meta
    assert all(B.product(i, j) == A.product(i, j) for i in range(B.dim) for j in range(B.dim))
    # semi-admissible n = 3: the probe and the n = 3 system; the degree
    # check reuses the probe
    build_algebra(3, semi_21())
    assert caps == [12, 12, 16]
    # another cap is another completion
    build_algebra(2, p, degree_cap=13)
    assert caps == [12, 12, 16, 13]
    # a user cap at n = 3 does not complete n = 2 again: d comes from the
    # probe's default-cap system
    monkeypatch.setattr(presentation, "_probe_cache", {})
    caps.clear()
    build_algebra(3, semi_21(), degree_cap=16)
    assert caps == [12, 16]


def _count_action_reductions(monkeypatch):
    """Counter of (system, word): each right action b_k g that a `Basis`
    computes, and each word that `reduce_word` reduces."""
    counts = Counter()
    init, reduce_word = rewriting.Basis.__init__, RewriteSystem.reduce_word

    def counting_init(basis, rs, words, letters):
        init(basis, rs, words, letters)
        counts.update((rs, w + bytes((g,))) for w in words for g in range(letters))

    def counting_reduce_word(rs, w):
        counts[(rs, w)] += 1
        return reduce_word(rs, w)

    monkeypatch.setattr(rewriting.Basis, "__init__", counting_init)
    monkeypatch.setattr(RewriteSystem, "reduce_word", counting_reduce_word)
    return counts


def test_each_generator_action_is_reduced_once(monkeypatch):
    monkeypatch.setattr(presentation, "_probe_cache", {})
    counts = _count_action_reductions(monkeypatch)
    A = build_algebra(3, generic(1))
    A.structure_constants()
    # all dim x #gens actions b_k g of the n = 3 system are computed, and
    # nothing is computed twice on it or on the probe's n = 2 system
    actions = [(A.rules, w + bytes((g,))) for w in A.basis.words for g in range(5)]
    assert all(counts[key] == 1 for key in actions)
    assert max(counts.values()) == 1
    # an n = 2 build served from the probe cache reuses the probe's actions
    counts.clear()
    B = build_algebra(2, generic(1))
    B.structure_constants()
    assert not counts
    assert B.basis is presentation._probe_cache[(presentation._params_key(generic(1)), "bmw")][1].basis


@pytest.mark.parametrize("n,params,variant", [
    (3, lambda: generic(1), "bmw"),
    (3, semi_21, "bmw"),
    (3, lambda: generic(2), "ariki_koike"),
    (1, lambda: generic(3), "bmw"),
    (3, lambda: generic(1, field=QQ), "bmw"),
    (2, lambda: ParameterSet(QQ, 2, 1, [1, 4, Fraction(1, 4)], admissible=True), "bmw"),
    (2, lambda: generic(3, field=GF(2**61 - 1)), "bmw"),
], ids=["b13", "semi_b23", "ak_b23", "b31", "q_b13", "q_b32", "gf2p61_b32"])
def test_dump_load_dump_is_byte_identical(n, params, variant):
    text = dumps_algebra(build_algebra(n, params(), variant=variant))
    assert dumps_algebra(load_algebra(json.loads(text))) == text


def _dumps_by_entry_lists(A):
    """The canonical text as json.dumps of a blob holding one [k, c] list
    per structure constant: the oracle for `dumps_algebra`."""
    p, f, dim = A.params, A.field, A.dim
    I, J, K, C, _ = A.structure_constants()
    order = np.argsort(I, kind="stable")
    bounds = np.searchsorted((I * dim + J)[order], np.arange(dim**2 + 1)).tolist()
    entries = [[k, f.render(c)] for k, c in zip(K[order].tolist(), C[order].tolist())]
    params = {"q": str(p.q), "rho": str(p.rho), "u": [str(x) for x in p.u],
              "admissible": p.admissible}
    if not p.admissible and p.r > 1:
        params["omega"] = [str(w) for w in p._explicit]
    blob = {"field": f.descriptor_string(), "n": A.n, "r": p.r, "variant": A.variant,
            "params": params, "basis": list(A.labels),
            "products": [[t // dim, t % dim, entries[lo:hi]]
                         for t, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]}
    return json.dumps(blob, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("n,params,variant,empty", [
    (2, lambda: generic(1), "bmw", 0),
    (4, lambda: generic(1), "bmw", 0),
    (3, semi_21, "bmw", 0),
    (3, lambda: generic(2), "ariki_koike", 0),
    (4, lambda: generic(1), "ariki_koike", 0),
    (2, lambda: generic(3, field=GF(2**31 - 1)), "bmw", 27),
    (2, lambda: generic(3, field=GF(2**61 - 1)), "bmw", 0),
    (3, lambda: generic(1, field=QQ), "bmw", 0),
    (2, lambda: _rational((1, 4, Fraction(1, 4))), "bmw", 0),
], ids=["b12", "b14", "semi_b23", "ak_b23", "ak_b14", "gf2p31_b32", "gf2p61_b32", "q_b13",
        "q_b32"])
def test_dumps_matches_entry_list_encoder(n, params, variant, empty):
    A = build_algebra(n, params(), variant=variant)
    text = dumps_algebra(A)
    assert text == _dumps_by_entry_lists(A)
    products = json.loads(text)["products"]
    assert sum(not entries for _, _, entries in products) == empty
    if A.field.p == 0:
        # the Q constants include negative and a/b renderings
        consts = {c for _, _, entries in products for _, c in entries}
        assert any(c.startswith("-") for c in consts) and any("/" in c for c in consts)


def test_empty_first_and_last_products_round_trip():
    blob = json.loads(dumps_algebra(build_algebra(3, generic(1))))
    products = blob["products"]
    assert products[0][:2] == [0, 0] and products[-1][:2] == [14, 14]
    products[0][2] = products[-1][2] = []
    text = json.dumps(blob, sort_keys=True, separators=(",", ":")) + "\n"
    assert '"products":[[0,0,[]],[0,1,[' in text and text.endswith(',[14,14,[]]],"r":1,"variant":"bmw"}\n')
    assert dumps_algebra(load_algebra(json.loads(text))) == text


@pytest.mark.parametrize("field", [F, QQ, GF(2**61 - 1)], ids=["p101", "Q", "p2^61-1"])
def test_load_and_from_table_make_the_same_arrays(field):
    A = build_algebra(3, generic(1, field=field))
    blob = json.loads(dumps_algebra(A))
    L = load_algebra(blob)
    # the same table, handed over in reverse (i, j) order
    table = {(i, j): tuple((k, field.parse(c)) for k, c in entries)
             for i, j, entries in reversed(blob["products"])}
    T = StructureAlgebra.from_table(field, table, A.dim, L.unit(), labels=L.labels)
    for x, y, z in zip(L.structure_constants(), T.structure_constants(),
                       A.structure_constants()):
        assert x.dtype == y.dtype == z.dtype
        assert x.tolist() == y.tolist() == z.tolist()


def test_dump_rejects_corner(algebras):
    A = algebras[(1, 3)]
    C = corner_algebra(A, truncation_idempotent(A, A.params))
    with pytest.raises(BuildError):
        dump_algebra(C)


def test_load_rejects_corruption():
    A = build_algebra(2, generic(1))
    blob = dump_algebra(A)
    bad = dict(blob)
    bad["products"] = blob["products"][:-1]
    with pytest.raises(BuildError):
        load_algebra(bad)
    bad2 = dict(blob)
    bad2.pop("field")
    with pytest.raises(BuildError):
        load_algebra(bad2)
    # a canonical dump holds no zero constant
    bad3 = json.loads(json.dumps(blob))
    entry = bad3["products"][A.dim]
    assert entry[:2] == [1, 0] and len(entry[2]) == 1
    entry[2][0][1] = "0"
    with pytest.raises(BuildError, match="corrupted algebra dump: .*zero"):
        load_algebra(bad3)


def test_load_rejects_repeated_product():
    blob = dump_algebra(build_algebra(2, generic(1)))
    assert blob["products"][0] == [0, 0, [[0, "1"]]]
    # a later entry for b0 b0 would silently win: b0 b0 = 5 b1
    blob["products"].append([0, 0, [[1, "5"]]])
    with pytest.raises(BuildError, match=r"^corrupted algebra dump: repeated product \(0, 0\)$"):
        load_algebra(blob)


@pytest.mark.parametrize("entries", [
    [[1, "54"], [1, "3"]],
    "reversed",
], ids=["repeated-k", "reversed-k"])
def test_load_rejects_k_not_strictly_increasing(entries):
    blob = json.loads(dumps_algebra(build_algebra(2, generic(1))))
    t = next(t for t, (_, _, terms) in enumerate(blob["products"]) if len(terms) > 1)
    terms = blob["products"][t][2]
    blob["products"][t][2] = terms[::-1] if entries == "reversed" else entries
    with pytest.raises(BuildError, match="corrupted algebra dump: .*not strictly increasing"):
        load_algebra(blob)


def _set_k(value):
    def corrupt(entry):
        entry[2][0][0] = value
    return corrupt


def _rename_i(entry):
    entry[0] = 7


@pytest.mark.parametrize("corrupt", [_set_k(-1), _rename_i, _set_k(99)],
                         ids=["k=-1", "(1,0)->(7,0)", "k=99"])
def test_load_rejects_out_of_range_index(corrupt):
    blob = json.loads(dumps_algebra(build_algebra(1, generic(3))))
    assert len(blob["basis"]) == 3
    entry = blob["products"][3]
    assert entry[:2] == [1, 0] and entry[2]
    corrupt(entry)
    with pytest.raises(BuildError, match="corrupted algebra dump: .*outside range"):
        load_algebra(blob)


@pytest.mark.parametrize("k", [1.7, True, "1"], ids=["float", "bool", "string"])
def test_load_rejects_non_integer_index(k):
    blob = json.loads(dumps_algebra(build_algebra(1, generic(3))))
    entry = blob["products"][3]
    assert entry[:2] == [1, 0] and entry[2][0][0] == 1
    entry[2][0][0] = k
    with pytest.raises(BuildError, match="corrupted algebra dump: .*is not an integer"):
        load_algebra(blob)


def _constant(blob):
    """The first structure constant of the product b_1 b_0."""
    entry = blob["products"][len(blob["basis"])]
    assert entry[:2] == [1, 0] and entry[2]
    return entry[2][0]


@pytest.mark.parametrize("field,value", [
    (F, 7), (F, None), (F, ["7"]), (F, True),
    (F, "205"), (F, "-100"), (F, "+7"), (F, " 7"), (F, "7 "), (F, "007"),
    (QQ, "2/4"), (QQ, "3/1"), (QQ, "1.5"), (QQ, "-0"), (QQ, "1/-2"), (QQ, 0.5),
], ids=["p101-number", "p101-null", "p101-list", "p101-bool", "p101-205", "p101--100",
        "p101-+7", "p101-leading-space", "p101-trailing-space", "p101-007", "Q-2/4", "Q-3/1",
        "Q-1.5", "Q--0", "Q-1/-2", "Q-number"])
def test_load_rejects_non_canonical_constant(field, value):
    blob = json.loads(dumps_algebra(build_algebra(2, generic(1, field=field))))
    _constant(blob)[1] = value
    with pytest.raises(BuildError, match="corrupted algebra dump: "):
        load_algebra(blob)


@pytest.mark.parametrize("key,value,match", [
    ("n", "2", "n = '2'"), ("n", 2.0, "n = 2.0"), ("n", None, "n = None"),
    ("n", True, "n = True"), ("n", 0, "n = 0"),
    ("variant", 7, "unknown variant 7"), ("variant", None, "unknown variant None"),
    ("r", 5, "r = 5"), ("r", True, "r = True"),
], ids=["n-string", "n-float", "n-null", "n-bool", "n-zero", "variant-number",
        "variant-null", "r-wrong", "r-bool"])
def test_load_rejects_bad_header(key, value, match):
    blob = json.loads(dumps_algebra(build_algebra(2, generic(1))))
    assert (blob["n"], blob["r"], blob["variant"]) == (2, 1, "bmw")
    blob[key] = value
    with pytest.raises(BuildError, match="^corrupted algebra dump: " + match):
        load_algebra(blob)
    del blob[key]
    with pytest.raises(BuildError, match="^corrupted algebra dump: "):
        load_algebra(blob)


def _set(key, value, where=None):
    def corrupt(blob):
        (blob if where is None else blob[where])[key] = value
    return corrupt


@pytest.mark.parametrize("corrupt,match", [
    (_set("field", " gfp:101"), "header 'field' reads ' gfp:101', not 'gfp:101'"),
    (_set("q", "103", "params"), "header 'params' reads {"),
    (_set("q", 2, "params"), "header 'params' reads {"),
    (_set("rho", "177", "params"), "header 'params' reads {"),
    (_set("u", [" 4"], "params"), "header 'params' reads {"),
    (_set("u", "4", "params"), "header 'params' reads {"),
    (_set("alpha", "1", "params"), "header 'params' reads {"),
    (_set("extra", 1), "header 'extra' reads 1, not None"),
    (_set("n", 3), "3 basis elements, but n = 3 has dimension 15"),
    (_set("variant", "ariki_koike"), "3 basis elements, but n = 2 has dimension 2"),
    (_set(1, "e01", "basis"), "basis label 'e01' is not a word for n = 2"),
    (_set(1, "e2", "basis"), "e_2 is out of range for n = 2"),
], ids=["field-space", "q-103", "q-number", "rho-177", "u-space", "u-string", "params-key",
        "top-key", "n-3", "variant-ak", "label-e01", "label-e2"])
def test_load_rejects_non_canonical_header(corrupt, match):
    blob = json.loads(dumps_algebra(build_algebra(2, generic(1))))
    assert blob["field"] == "gfp:101" and blob["basis"] == ["1", "e1", "g1"]
    assert blob["params"] == {"admissible": True, "q": "2", "rho": "76", "u": ["4"]}
    corrupt(blob)
    with pytest.raises(BuildError, match="^corrupted algebra dump: " + re.escape(match)):
        load_algebra(blob)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []],
                         ids=["string-false", "string-true", "zero", "one", "null", "list"])
def test_load_rejects_non_bool_admissible(value):
    blob = json.loads(dumps_algebra(build_algebra(2, generic(1))))
    assert blob["params"]["admissible"] is True
    blob["params"]["admissible"] = value
    with pytest.raises(BuildError, match=r"^corrupted algebra dump: admissible = .* is not a bool$"):
        load_algebra(blob)


def test_load_rejects_repeated_basis_label():
    blob = json.loads(dumps_algebra(build_algebra(2, generic(1))))
    assert blob["basis"] == ["1", "e1", "g1"]
    # the generators e1 and g1 would collapse to one
    blob["basis"][1] = "g1"
    with pytest.raises(BuildError, match="^corrupted algebra dump: repeated basis label 'g1'$"):
        load_algebra(blob)


def test_load_parses_each_distinct_constant_once(monkeypatch):
    A = build_algebra(3, generic(1))
    blob = json.loads(dumps_algebra(A))
    consts = [c for _, _, entries in blob["products"] for _, c in entries]
    calls = []
    parse = type(F).parse
    monkeypatch.setattr(type(F), "parse", lambda self, s: calls.append(s) or parse(self, s))
    # the parameters are parsed first: count their calls on a dump that fails after them
    with pytest.raises(BuildError, match="incomplete"):
        load_algebra({**blob, "products": []})
    first = len(calls)
    calls.clear()
    L = load_algebra(blob)
    assert sorted(calls[first:]) == sorted(set(consts)) and len(set(consts)) < len(consts)
    assert L.structure_constants()[3].tolist() == A.structure_constants()[3].tolist()


def test_degree_cap_env(monkeypatch):
    # the cap is set by argument (--degree-cap) only: a starving value in
    # the environment moves neither the default nor the orientation probe
    monkeypatch.setenv("BMW_DEGREE_CAP", "3")
    monkeypatch.setattr(presentation, "_probe_cache", {})
    assert default_degree_cap(2, 1) == 10
    p = generic(1)
    assert select_orientation13(p) == "x1"
    assert presentation._probe_cache[(presentation._params_key(p), "bmw")][0] == 10


def test_cap_too_small_raises():
    with pytest.raises(CompletionError):
        build_algebra(2, generic(1), degree_cap=1)
    with pytest.raises(CompletionError):
        build_algebra(2, generic(2), degree_cap=3)


def test_words_persisting_at_the_cap_raise():
    # completion finishes under the cap, but the words do not: no basis
    with pytest.raises(CompletionError, match="persist at degree 3"):
        build_algebra(3, generic(1), degree_cap=3)


def test_n_beyond_the_generator_bytes_is_refused():
    assert presentation.MAX_N == 128 and X(presentation.MAX_N) == 254
    for call in (lambda: build_algebra(129, generic(1)),
                 lambda: canonical_relations(129, generic(1))):
        with pytest.raises(BuildError, match="n = 129 is outside 1..128"):
            call()


def test_word_str_round_trip():
    from cycbmw.presentation import parse_word
    for s in ("1", "e1", "g2.x1", "e1.g1.x1"):
        assert word_str(parse_word(s, 3), 3) == s
