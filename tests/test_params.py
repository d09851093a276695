import random

import pytest

from cycbmw.acceptance import generic_parameters
from cycbmw.fields import GF, QQ
from cycbmw.params import (AdmissibilityError, DistinctParameterError,
                           ParameterError, ParameterSet, admissible_rho,
                           alpha_candidates, check_admissible,
                           gamma_weights, omega, omega_vanishing_report,
                           parse_parameter_file, render_parameter_file)

F101 = GF(101)


def rational_example():
    # r=1 over Q with q=2, u1=3, rho=1/3: gamma_1 = 25/9
    return ParameterSet(QQ, 2, "1/3", [3], admissible=True)


def random_admissible(rng, r):
    q = F101(rng.randrange(2, 101))
    while (q * q) == F101(1):
        q = F101(rng.randrange(2, 101))
    u = []
    while len(u) < r:
        cand = F101(rng.randrange(1, 101))
        if cand not in u:
            u.append(cand)
    prod = F101(1)
    for x in u:
        prod = prod * x
    alphas = [F101(1), F101(-1)] if r % 2 else [q.inv(), -q]
    rho = (rng.choice(alphas) * prod).inv()
    return ParameterSet(F101, q, rho, u, admissible=True)


def test_gamma_rational_example():
    p = rational_example()
    g = gamma_weights(p)
    assert len(g) == 1 and str(g[0]) == "25/9"
    assert str(p.omega0) == "25/9"
    assert str(omega(p, 1)) == "25/3"
    assert p.alpha == QQ(1)


def test_gamma_u_equal_one():
    # u1 = 1 kills the second summand; r odd so the head term is 1
    p = ParameterSet(QQ, 2, 1, [1], admissible=True)
    assert gamma_weights(p) == [QQ(1)]


def test_gamma_independent_straight_line():
    # independent evaluation of the closed formula, term by term
    rng = random.Random(3)
    for _ in range(25):
        p = random_admissible(rng, 2)
        g = gamma_weights(p)
        f = p.field
        dinv = p.delta.inv()
        for i in range(2):
            ui = p.u[i]
            uj = p.u[1 - i]
            head = -ui                      # r even
            expected = (head + dinv * p.rho * (ui * ui - f(1)) * uj) \
                * (ui * uj - f(1)) / (ui - uj)
            assert g[i] == expected


def test_gamma_requires_distinct_u():
    p = ParameterSet(QQ, 2, "1/9", [3, 3], admissible=False, omegas=[0])
    with pytest.raises(DistinctParameterError):
        gamma_weights(p)


def test_omega_zero_is_preamble():
    rng = random.Random(5)
    for r in (1, 2, 3):
        for _ in range(20):
            p = random_admissible(rng, r)
            assert omega(p, 0) == p.omega0
            total = p.field(0)
            for g in gamma_weights(p):
                total = total + g
            assert total == p.omega0


def test_check_admissible_examples():
    assert check_admissible(rational_example()).passed
    bad = ParameterSet(QQ, 2, 5, [3], admissible=False)
    rep = check_admissible(bad)
    assert not rep.passed
    with pytest.raises(AdmissibilityError):
        ParameterSet(QQ, 2, 5, [3], admissible=True)


def test_admissible_gf101_example():
    q = F101(3)
    u = [F101(4), F101(5)]
    alpha = q.inv()
    rho = (alpha * u[0] * u[1]).inv()
    p = ParameterSet(F101, q, rho, u, admissible=True)
    rep = check_admissible(p)
    assert rep.passed and rep.alpha == alpha
    assert rep.omega0_formula == rep.omega0_preamble


def test_omega_recurrence():
    # sum_k (-1)^(r-k) sigma_{r-k} omega_{a+k} = 0, |a| <= 3r
    rng = random.Random(9)
    for r in (1, 2, 3):
        p = random_admissible(rng, r)
        f = p.field
        for a in range(-3 * r, 3 * r + 1):
            acc = f(0)
            for k in range(r + 1):
                term = p.sigma[r - k] * omega(p, a + k)
                acc = acc + (term if (r - k) % 2 == 0 else -term)
            assert acc.is_zero(), (r, a)


def test_negative_omega_matches_closed_formula():
    rng = random.Random(13)
    p = random_admissible(rng, 2)
    g = gamma_weights(p)
    for a in (-1, -2, -5):
        expected = p.u[0]**a * g[0] + p.u[1]**a * g[1]
        assert omega(p, a) == expected


def test_explicit_omegas_follow_recurrence():
    base = ParameterSet(F101, 2, F101(4).inv(), [4], admissible=True)
    p = ParameterSet.semi_admissible(base, [16])
    assert not p.admissible
    # the extension keeps the base sequence: omega_a = u1^a * omega_0
    for a in range(-4, 9):
        assert omega(p, a) == base.u[0]**a * base.omega0


def test_omega_vanishing_report():
    p = rational_example()
    all_zero, first = omega_vanishing_report(p)
    assert not all_zero and first == 0
    z = ParameterSet(QQ, 2, 2, ["1/2"], admissible=True)   # rho = q: omega_0 = 0
    assert z.omega0.is_zero()
    all_zero, first = omega_vanishing_report(z)
    assert all_zero and first is None
    for a in range(-6, 7):
        assert omega(z, a).is_zero()


def test_constructor_validation():
    with pytest.raises(ParameterError):
        ParameterSet(QQ, 1, 2, [3])              # q^2 = 1
    with pytest.raises(ParameterError):
        ParameterSet(QQ, -1, 2, [3])
    with pytest.raises(ParameterError):
        ParameterSet(QQ, 2, 0, [3])
    with pytest.raises(ParameterError):
        ParameterSet(QQ, 2, 2, [0])
    with pytest.raises(ParameterError):
        ParameterSet(QQ, 2, "1/9", [3, 4], admissible=False)   # missing omegas


def test_parameter_file_round_trip():
    for p in (rational_example(),
              ParameterSet.semi_admissible(
                  ParameterSet(F101, 2, F101(4).inv(), [4], admissible=True), [16])):
        text = render_parameter_file(p)
        q = parse_parameter_file(text)
        assert q.field == p.field and q.q == p.q and q.rho == p.rho
        assert q.u == p.u and q.admissible == p.admissible
        assert [omega(q, a) for a in range(4)] == [omega(p, a) for a in range(4)]


def test_parameter_file_errors():
    with pytest.raises(ParameterError):
        parse_parameter_file("field = q\nq = 2\n")      # missing rho, u
    with pytest.raises(ParameterError):
        parse_parameter_file("field = q\nq = 2\nrho = 1/3\nu = 3\nr = 2\n")


@pytest.mark.parametrize("line,match", [
    ("admissible = ture", "admissible must be one of"),
    ("admissable = true", "unknown key 'admissable'"),
    ("omegas = 1", "unknown key 'omegas'"),
    ("q = 3", "line 5: repeated key 'q'"),
    ("r = x", "line 5: r = 'x' is not an integer"),
], ids=["flag-typo", "key-typo", "plural-key", "repeated-key", "r-not-an-integer"])
def test_parameter_file_rejects_bad_input(line, match):
    with pytest.raises(ParameterError, match=match):
        parse_parameter_file(f"field = q\nq = 2\nrho = 1/3\nu = 3\n{line}\n")


def test_parameter_file_flag_values():
    base = "field = q\nq = 2\nrho = 1/3\nu = 3\n"
    for flag, want in (("true", True), ("1", True), ("Yes", True),
                       ("false", False), ("0", False), ("NO", False)):
        assert parse_parameter_file(base + f"admissible = {flag}\n").admissible is want


def test_admissible_rho():
    rng = random.Random(5)
    for r in (1, 2, 3, 4):
        p = random_admissible(rng, r)
        prod = F101(1)
        for x in p.u:
            prod = prod * x
        alphas = alpha_candidates(p.q, r)
        # the default witness is the first allowed alpha
        assert admissible_rho(p.q, p.u) == (alphas[0] * prod).inv()
        for alpha in alphas:
            rho = admissible_rho(p.q, p.u, alpha)
            assert rho * alpha * prod == F101(1)
            assert ParameterSet(F101, p.q, rho, p.u, admissible=True).alpha == alpha
    for r in (1, 2, 3):
        p = generic_parameters(r)
        assert p.rho == admissible_rho(p.q, p.u) and p.alpha == alpha_candidates(p.q, r)[0]
    q, u = QQ(2), [QQ(3), QQ("1/5")]
    assert admissible_rho(q, u) == (q.inv() * u[0] * u[1]).inv()


def test_x_power_is_the_cyclotomic_reduction():
    rng = random.Random(9)
    sets = [random_admissible(rng, r) for r in (1, 2, 3, 4)]
    sets += [rational_example(), ParameterSet(QQ, 2, 7, [2, "1/3", -5], admissible=False,
                                              omegas=[1, 2])]
    for p in sets:
        assert len(p.x_power) == p.r
        for uj in p.u:
            assert sum((c * uj**k for k, c in enumerate(p.x_power)), p.field(0)) == uj**p.r
