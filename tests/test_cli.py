import hashlib
import json
import os
import sys

import pytest

from cycbmw.acceptance import generic_parameters, semi_parameters
from cycbmw.cli import _parameters_from_args, main, make_parser
from cycbmw.fields import GF, QQ
from cycbmw.params import ParameterSet
from cycbmw.presentation import build_algebra, dumps_algebra

GENERIC = ["--field", "gfp:101", "--q", "2", "--u", "4", "--admissible"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_report_and_dump(tmp_path, capsys):
    dump = tmp_path / "b12.json"
    argv = ["build", "--n", "2", *GENERIC]
    code, out, err = run(capsys, *argv, "--out", str(dump))
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 3
    assert report["expected_dimension"] == 3
    assert report["relation13_orientation"] == "x1"
    blob = json.loads(dump.read_text())
    assert blob["basis"] == ["1", "e1", "g1"]
    A = build_algebra(2, _parameters_from_args(make_parser().parse_args(argv)))
    assert dump.read_bytes() == dumps_algebra(A).encode()


def test_build_malformed_u(capsys):
    code, out, err = run(capsys, "build", "--n", "2", "--field", "gfp:101",
                         "--q", "2", "--u", ",,")
    assert code == 1 and "u" in err


def test_build_param_file_exclusive(tmp_path, capsys):
    f = tmp_path / "p.params"
    f.write_text("field = gfp:101\nq = 2\nrho = 76\nu = 4\nadmissible = true\n")
    code, out, err = run(capsys, "build", "--n", "2", "--params", str(f),
                         "--q", "2")
    assert code == 1 and "mutually exclusive" in err
    code, out, err = run(capsys, "build", "--n", "2", "--params", str(f))
    assert code == 0 and json.loads(out)["dimension"] == 3


@pytest.mark.parametrize("flags", [
    ("--r", "1"), ("--omega", "5"), ("--admissible",), ("--no-admissible",),
    ("--no-admissible", "--r", "3", "--omega", "5"),
], ids=["r", "omega", "admissible", "no-admissible", "all-three"])
def test_param_file_excludes_every_inline_flag(tmp_path, capsys, flags):
    f = tmp_path / "p.params"
    f.write_text("field = gfp:101\nq = 2\nrho = 76\nu = 4\nadmissible = true\n")
    code, out, err = run(capsys, "semiadmissible", "--params", str(f), *flags)
    assert code == 1 and "mutually exclusive" in err and not out


def test_zero_denominator_is_validation_error(tmp_path, capsys):
    code, out, err = run(capsys, "build", "--n", "1", "--field", "q", "--q", "1/0",
                         "--u", "1")
    assert code == 1 and err.startswith("error:") and "zero denominator" in err
    dump = tmp_path / "q11.json"
    code, out, err = run(capsys, "build", "--n", "1", "--field", "q", "--q", "2",
                         "--u", "1", "--out", str(dump))
    assert code == 0
    blob = json.loads(dump.read_text())
    assert blob["products"] == [[0, 0, [[0, "1"]]]]
    blob["products"][0][2][0][1] = "1/0"
    dump.write_text(json.dumps(blob))
    code, out, err = run(capsys, "analyze", str(dump))
    assert code == 1 and not out
    assert err.startswith("error: corrupted algebra dump") and "zero denominator" in err


def test_build_cap_exhaustion_is_resource_error(capsys):
    code, out, err = run(capsys, "build", "--n", "2", *GENERIC,
                         "--degree-cap", "1")
    assert code == 2 and "cap" in err


def test_classify_affine_rows(capsys):
    code, out, err = run(capsys, "classify", "--mode", "affine",
                         "--n", "2", "--e", "2")
    assert code == 0
    assert len(json.loads(out)) == 5
    code, out, err = run(capsys, "classify", "--mode", "affine",
                         "--n", "2", "--e", "2", "--omega-zero")
    assert len(json.loads(out)) == 4


def test_classify_cyclotomic_scope_rejection(capsys):
    # u = 2 = q is not a power of q^2 when q generates the full group
    code, out, err = run(capsys, "classify", "--mode", "cyclotomic", "--n", "2",
                         "--field", "gfp:101", "--q", "2", "--u", "2",
                         "--rho", "51", "--no-admissible")
    assert code == 1 and "power of q^2" in err


def test_classify_cyclotomic_over_q_finds_large_charges(capsys):
    # u = q^(2 * 65): over Q the charge is exact, however large
    code, out, err = run(capsys, "classify", "--mode", "cyclotomic", "--n", "2",
                         "--field", "q", "--q", "2", "--u", str(4**65))
    assert code == 0 and len(json.loads(out)) == 3, err


def test_classify_cyclotomic_refuses_fast_near_2_31(capsys):
    # e = 357,913,941: a search over the powers of q^2 takes minutes
    code, out, err = run(capsys, "classify", "--mode", "cyclotomic", "--n", "2",
                         "--field", "gfp:2147483647", "--q", "3", "--u", "5")
    assert code == 1 and "power of q^2" in err


def test_classify_cyclotomic_refuses_a_discrete_log_of_huge_prime_order(capsys):
    # p - 1 = 2 * 1152921504606845789: q^2 = 9 generates the subgroup of
    # that prime order, where sympy's discrete_log runs Pollard rho
    p = 2305843009213691579
    code, out, err = run(capsys, "classify", "--mode", "cyclotomic", "--n", "2",
                         "--field", f"gfp:{p}", "--q", "3", "--u", str(pow(9, 123456789, p)))
    assert code == 1 and not out and "prime factor 1152921504606845789" in err, err


# one digit more than Python converts from a decimal string (4300 by default)
_LIMIT = sys.get_int_max_str_digits()
_OVER_LONG = "1" + "0" * _LIMIT


@pytest.mark.parametrize("flag", ["--u", "--q", "--rho"])
def test_classify_names_the_flag_of_an_over_long_rational(capsys, flag):
    values = {"--q": "2", "--u": "4", "--rho": "1", flag: _OVER_LONG}
    code, out, err = run(capsys, "classify", "--mode", "cyclotomic", "--n", "2",
                         "--field", "q", *(x for kv in values.items() for x in kv))
    assert code == 1 and not out
    assert err.startswith(f"error: {flag}: a value of {_LIMIT + 1} digits exceeds "
                          f"the limit of {_LIMIT} digits"), err


def test_classify_names_the_file_key_of_an_over_long_rational(tmp_path, capsys):
    f = tmp_path / "long.params"
    f.write_text(f"field = q\nq = 2\nrho = 1\n# charge\nu = {_OVER_LONG}\n")
    code, out, err = run(capsys, "classify", "--mode", "cyclotomic", "--n", "2",
                         "--params", str(f))
    assert code == 1 and not out
    assert err.startswith(f"error: line 5: u: a value of {_LIMIT + 1} digits"), err


def test_build_refuses_n_beyond_the_generator_bytes(capsys):
    code, out, err = run(capsys, "build", "--n", "200", "--field", "gfp:101",
                         "--q", "2", "--u", "4")
    assert code == 1 and "n = 200 is outside 1..128" in err


def test_build_reports_words_persisting_at_the_cap(capsys):
    code, out, err = run(capsys, "build", "--n", "3", "--field", "gfp:101",
                         "--q", "2", "--u", "4", "--degree-cap", "3")
    assert code == 2 and "persist at degree 3" in err


def test_classify_explicit_multicharge(capsys):
    code, out, err = run(capsys, "classify", "--mode", "cyclotomic", "--n", "3",
                         *GENERIC, "--multicharge", "1")
    assert code == 0 and len(json.loads(out)) == 4
    # inconsistent charges are rejected, not silently accepted
    code, out, err = run(capsys, "classify", "--mode", "cyclotomic", "--n", "3",
                         *GENERIC, "--multicharge", "7")
    assert code == 1


def test_classify_csv_quoting(capsys):
    code, out, err = run(capsys, "classify", "--mode", "cyclotomic", "--n", "3",
                         *GENERIC, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "f,lambda,kleshchev"
    assert '"1,1,1"' in out      # comma-bearing field is quoted per RFC 4180


def test_byte_identical_outputs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "classify", "--mode", "affine", "--n", "4",
                         "--e", "3", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    da, db = tmp_path / "da.json", tmp_path / "db.json"
    for path in (da, db):
        code, _, _ = run(capsys, "build", "--n", "2", *GENERIC, "--out", str(path))
        assert code == 0
    assert da.read_bytes() == db.read_bytes()


def test_analyze_roundtrip(tmp_path, capsys):
    dump = tmp_path / "b13.json"
    code, _, _ = run(capsys, "build", "--n", "3", *GENERIC, "--out", str(dump))
    assert code == 0
    code, out, err = run(capsys, "analyze", str(dump), "--strict")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == [3, 2, 1, 1]
    assert payload["split"] is True
    assert payload["classification_count"] == 4
    assert payload["match"] is True
    assert payload["caveats"] == []
    assert len(payload["block_info"]) == 4
    for info in payload["block_info"]:
        assert info["center_degree"] == 1 and info["split"] is True
        assert info["division_dim"] == 1 and info["dim"] == info["matrix_size"] ** 2
    assert sorted((b["matrix_size"] for b in payload["block_info"]),
                  reverse=True) == payload["blocks"]


# sha256 of the `cycbmw analyze` JSON of the four GF(101) instances of the
# analyze benchmark and of Q B(1,3): (n, parameters, variant, digest)
def _generic_over(field, r):
    """perfbench/instances.generic_over, written out: q = 2, u_i = q^(2 + 8i),
    rho = (alpha prod u)^-1 with alpha = 1 for odd r, q^-1 for even r."""
    q = field(2)
    u = [(q * q) ** (1 + 4 * i) for i in range(r)]
    prod = field(1)
    for x in u:
        prod = prod * x
    alpha = field(1) if r % 2 else q.inv()
    return ParameterSet(field, q, (alpha * prod).inv(), u, admissible=True)


# The digests of the word-size and object-dtype primes and of GF(5) B(1,3),
# whose minimal polynomials have a square and an irreducible quadratic
# factor, were recorded with sympy's factoring, before the GF(p) kernel.
ANALYZE_PINS = {
    "gf101_b14": (4, lambda: generic_parameters(1), "bmw",
                  "5052199dbbabea931366f4a0340bdc211c91f423bf9abf81de95abef9201fc2e"),
    "gf101_semi_b23": (3, semi_parameters, "bmw",
                       "21fc79d030e988aaf0b035bbbe04993dcd081eb8a4132e7472df9e675b4db888"),
    "gf101_ak_b23": (3, lambda: generic_parameters(2), "ariki_koike",
                     "2ddb1ff185335b31245beddc2ec2a03482ee1b83c532351c2f158fbd4fd4648c"),
    "gf101_b32": (2, lambda: generic_parameters(3), "bmw",
                  "d205659c56b96336ff01d1c7b5ca0aa20ea0d74cbecdc14a2ff3fc06194fe33d"),
    "q_b13": (3, lambda: ParameterSet(QQ, 2, 1, [1], admissible=True), "bmw",
              "c0fef064ff772313d2c14386a8cdeb75fa66cad59cf6c1b536058b52a67a9f88"),
    "gf2p31_b32": (2, lambda: _generic_over(GF(2**31 - 1), 3), "bmw",
                   "850c19ebc8ec737c128fffd68feab3cc1419018b1c0956997f7bc9667fc4b39a"),
    "gf2p61_b32": (2, lambda: _generic_over(GF(2**61 - 1), 3), "bmw",
                   "71c118e05d3fd52080005aa8fa76bf598130b51c70eaf2843b8c4b5fddf1d79c"),
    "gf5_b13": (3, lambda: _generic_over(GF(5), 1), "bmw",
                "7ca1a6a9e48f2b6eb2891c003d60108e5fc726cba643a837962c907cca5e3763"),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_PINS))
def test_analyze_json_is_pinned(name, tmp_path, capsys):
    n, params, variant, digest = ANALYZE_PINS[name]
    dump = tmp_path / f"{name}.json"
    dump.write_text(dumps_algebra(build_algebra(n, params(), variant=variant)))
    code, out, _ = run(capsys, "analyze", str(dump))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_analyze_ariki_koike_dump(tmp_path, capsys):
    # q = 10: q^2 = -1 has order 2; one Kleshchev partition of 2 at level 1
    dump = tmp_path / "ak.json"
    code, _, _ = run(capsys, "build", "--n", "2", "--field", "gfp:101",
                     "--q", "10", "--u", "100", "--admissible",
                     "--variant", "ariki_koike", "--out", str(dump))
    assert code == 0
    code, out, err = run(capsys, "analyze", str(dump))
    assert code == 0
    payload = json.loads(out)
    assert payload["classification_count"] == 1
    assert payload["match"] is True
    assert len(payload["blocks"]) == 1


def test_analyze_says_why_it_has_no_classification_count(tmp_path, capsys):
    # u = 2 = q is not a power of q^2 in GF(101): the blocks, but no count
    dump = tmp_path / "u2.json"
    code, _, _ = run(capsys, "build", "--n", "2", "--field", "gfp:101", "--q", "2",
                     "--u", "2", "--out", str(dump))
    assert code == 0
    code, out, err = run(capsys, "analyze", str(dump))
    payload = json.loads(out)
    assert code == 0 and payload["blocks"] == [1, 1, 1]
    assert payload["classification_count"] is None and payload["match"] is None
    assert len(payload["caveats"]) == 1
    assert payload["caveats"][0].startswith("no classification count: u = 2 is not "
                                            "an integral power of q^2")


def test_analyze_corrupted_dump(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"field\": \"gfp:101\"}")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1
    notjson = tmp_path / "notjson.json"
    notjson.write_text("hello")
    code, out, err = run(capsys, "analyze", str(notjson))
    assert code == 1


def test_analyze_refuses_a_string_n(tmp_path, capsys):
    blob = json.loads(dumps_algebra(build_algebra(2, generic_parameters(1))))
    blob["n"] = "2"
    dump = tmp_path / "bad.json"
    dump.write_text(json.dumps(blob))
    code, out, err = run(capsys, "analyze", str(dump))
    assert code == 1 and not out
    assert err.startswith("error: corrupted algebra dump: n = '2'")


def test_classify_refuses_a_negative_n(capsys):
    code, out, err = run(capsys, "classify", "--mode", "cyclotomic", "--n", "-2", *GENERIC)
    assert code == 1 and not out and "n must be >= 0" in err


@pytest.mark.parametrize("value", [7, None, ["7"], "205", "-100", "+7", " 7"],
                         ids=["number", "null", "list", "205", "-100", "+7", "space"])
def test_analyze_refuses_non_canonical_constant(tmp_path, capsys, value):
    blob = json.loads(dumps_algebra(build_algebra(2, generic_parameters(1))))
    entry = blob["products"][len(blob["basis"])]
    assert entry[:2] == [1, 0] and entry[2]
    entry[2][0][1] = value
    dump = tmp_path / "bad.json"
    dump.write_text(json.dumps(blob))
    code, out, err = run(capsys, "analyze", str(dump))
    assert code == 1 and not out
    assert err.startswith("error: corrupted algebra dump: structure constant ")


def test_derived_rho_refuses_explicit_omegas(capsys):
    # admissible parameters derive their omegas; a given --omega is refused,
    # with --rho given or derived from u
    base = ["build", "--n", "1", "--field", "gfp:101", "--q", "2", "--u", "4,16", "--omega", "5"]
    code, out, err = run(capsys, *base)
    assert code == 1 and not out and "explicit omegas" in err
    code, out, err = run(capsys, *base, "--rho", "60")
    assert code == 1 and not out and "explicit omegas" in err


def test_semiadmissible_command(capsys):
    code, out, err = run(capsys, "semiadmissible", *GENERIC)
    assert code == 0 and out.strip() == "1"


def test_verify_only_filter(capsys):
    code, out, err = run(capsys, "verify", "--only", "combinatorics")
    assert code == 0
    assert "PASS combinatorics" in out
    code, out, err = run(capsys, "verify", "--only", "nonsense")
    assert code == 1 and "unknown criteria" in err


def test_verify_refuses_an_empty_selection(capsys):
    for only in (",", ""):
        code, out, err = run(capsys, "verify", "--only", only)
        assert code == 1 and "--only" in err and "selects no criterion" in err and not out


_CYCLOTOMIC = ("--mode", "cyclotomic", "--n", "2", *GENERIC)
_AFFINE = ("--mode", "affine", "--n", "2")


@pytest.mark.parametrize("argv,flag", [
    ((*_CYCLOTOMIC, "--e", "3"), "--e"),
    ((*_CYCLOTOMIC, "--window", "0:1"), "--window"),
    ((*_CYCLOTOMIC, "--omega-zero"), "--omega-zero"),
    ((*_AFFINE, "--e", "2", "--multicharge", "0"), "--multicharge"),
    ((*_AFFINE, "--e", "2", "--field", "gfp:7"), "--field"),
    ((*_AFFINE, "--e", "2", "--params", "unused.params"), "--params"),
    ((*_AFFINE, "--e", "2", "--no-admissible"), "--no-admissible"),
    ((*_AFFINE, "--e", "inf", "--window", "3"), "--window"),
    ((*_AFFINE, "--e", "inf", "--window", "a:1"), "--window"),
    ((*_AFFINE, "--e", "inf", "--window", "3:1"), "--window"),
    ((*_AFFINE, "--e", "3", "--window", "0:1"), "--window"),
    ((*_AFFINE, "--e", "abc"), "--e"),
    ((*_AFFINE, "--e", "1"), "--e"),
    ((*_AFFINE, "--e", "inf"), "--window"),
    ((*_CYCLOTOMIC, "--multicharge", "x"), "--multicharge"),
], ids=["cyclotomic-e", "cyclotomic-window", "cyclotomic-omega-zero", "affine-multicharge",
        "affine-field", "affine-params", "affine-no-admissible", "window-one-value",
        "window-not-integers", "window-lo-above-hi", "window-finite-e", "e-not-an-integer",
        "e-below-2", "e-inf-without-window", "multicharge-not-integers"])
def test_classify_refuses_flags_it_would_ignore(capsys, argv, flag):
    code, out, err = run(capsys, "classify", *argv)
    assert code == 1 and flag in err and not out, err


def test_classify_affine_window_at_e_inf(capsys):
    # lo = hi is a window of one start residue; 0:1 adds the segments from 1
    base = ("classify", *_AFFINE, "--e", "inf", "--window")
    code, out, _ = run(capsys, *base, "0:0")
    code_w, out_w, _ = run(capsys, *base, "0:1")
    assert code == code_w == 0 and 1 < len(json.loads(out)) < len(json.loads(out_w)) == 6


def test_unknown_flag_is_validation_error(capsys):
    code, out, err = run(capsys, "build", "--frobnicate")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("build", "--n", "2", *GENERIC, "--jobs", "2"),
    ("build", "--n", "2", *GENERIC, "--seed", "5"),
    ("classify", "--mode", "affine", "--n", "2", "--e", "2", "--jobs", "2"),
    ("classify", "--mode", "affine", "--n", "2", "--e", "2", "--seed", "5"),
    ("analyze", "unused.json", "--jobs", "2"),
    ("analyze", "unused.json", "--format", "json"),
    ("semiadmissible", *GENERIC, "--jobs", "2"),
    ("semiadmissible", *GENERIC, "--seed", "5"),
    ("verify", "--only", "combinatorics", "--jobs", "2"),
], ids=["build-jobs", "build-seed", "classify-jobs", "classify-seed", "analyze-jobs",
        "analyze-format", "semiadmissible-jobs", "semiadmissible-seed", "verify-jobs"])
def test_removed_flags_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "unrecognized arguments" in err and not out
