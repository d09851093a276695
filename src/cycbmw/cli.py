"""Batch command-line surface.

Commands: build, classify, analyze, semiadmissible, verify.  Outputs are
canonical (sorted JSON keys, RFC-4180 CSV, no timestamps), so identical
invocations produce byte-identical files.  Exit codes: 0 success, 1
validation or mathematical failure, 2 resource/cap failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import List, Optional

from .fields import Field
from .params import ParameterSet, admissible_rho, parse_parameter_file
from .presentation import (build_algebra, dumps_algebra, load_algebra,
                           semi_admissibility_degree)
from .repn import DEFAULT_SEED, AnalysisError, radical, wedderburn
from .rewriting import CompletionError
from .combinatorics import (Multicharge, MultichargeScopeError, affine_rows,
                            classify_affine, classify_cyclotomic, cyclotomic_rows)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESOURCE = 2


class CliError(Exception):
    def __init__(self, message, code=EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here is 1
    def error(self, message):
        raise CliError(message)


def _add_param_flags(sp):
    sp.add_argument("--params", help="parameter file (mutually exclusive with inline flags)")
    sp.add_argument("--field", help="field descriptor: q or gfp:<p>")
    sp.add_argument("--q", help="the deformation scalar q")
    sp.add_argument("--rho", help="the twist scalar; derived from u when "
                                  "--admissible is set and --rho is omitted")
    sp.add_argument("--u", help="comma list of cyclotomic roots u_1,..,u_r")
    sp.add_argument("--r", type=int, help="number of roots (checked against --u)")
    sp.add_argument("--admissible", action="store_true", default=None)
    sp.add_argument("--no-admissible", dest="admissible", action="store_false")
    sp.add_argument("--omega", help="comma list omega_1..omega_{r-1} for "
                                    "non-admissible sets")


# the argparse dests of the inline parameter flags
_PARAM_DESTS = ("field", "q", "rho", "u", "r", "omega", "admissible")


def _given(args, dests) -> List[str]:
    """The flags, among the argparse `dests`, that were given (are not None);
    a False one was given as --no-<flag>."""
    return ["--" + "no-" * (getattr(args, d) is False) + d.replace("_", "-")
            for d in dests if getattr(args, d) is not None]


def _parameters_from_args(args) -> ParameterSet:
    if args.params and _given(args, _PARAM_DESTS):
        raise CliError("--params and inline parameter flags are mutually exclusive")
    if args.params:
        with open(args.params, "r", encoding="utf-8") as fh:
            return parse_parameter_file(fh.read())
    if args.field is None or args.q is None or args.u is None:
        raise CliError("need --params or at least --field, --q and --u")
    field = Field.from_descriptor(args.field)
    u = [s.strip() for s in args.u.split(",") if s.strip()]
    if not u:
        raise CliError("malformed --u list")
    if args.r is not None and args.r != len(u):
        raise CliError(f"--r {args.r} does not match {len(u)} u-values")
    admissible = True if args.admissible is None else args.admissible
    omegas = None
    if args.omega:
        omegas = [s.strip() for s in args.omega.split(",") if s.strip()]
    rho = args.rho
    if rho is None:
        if not admissible:
            raise CliError("--rho is required for non-admissible parameters")
        # derive rho from the first allowed alpha: rho^{-1} = alpha prod(u)
        rho = admissible_rho(field(args.q), [field(x) for x in u])
    return ParameterSet(field, args.q, rho, u, admissible=admissible,
                        omegas=omegas)


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(rows: List[dict]) -> str:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                                quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def _rows_to_json(rows) -> str:
    return json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n"


# -- commands -----------------------------------------------------------------

def cmd_build(args) -> int:
    p = _parameters_from_args(args)
    A = build_algebra(args.n, p, variant=args.variant,
                      degree_cap=args.degree_cap)
    report = dict(A.meta)
    if args.out:
        _emit(dumps_algebra(A), args.out)
        report["dump"] = args.out
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_classify(args) -> int:
    affine = args.mode == "affine"
    ignored = ("multicharge", "params") + _PARAM_DESTS if affine else ("e", "window", "omega_zero")
    if flags := _given(args, ignored):
        raise CliError(f"--mode {args.mode} does not use {', '.join(flags)}")
    if affine:
        if args.e is None:
            raise CliError("--mode affine needs --e (>= 2, or 'inf')")
        try:
            e = None if args.e in ("inf", "infinity") else int(args.e)
        except ValueError:
            e = 0   # refused below, with the integers below 2
        if e is not None and e < 2:
            raise CliError(f"--e {args.e!r} is neither an integer >= 2 nor 'inf'")
        window = None
        if args.window is not None:
            if e is not None:
                raise CliError("--window needs --e inf")
            try:
                lo, hi = map(int, args.window.split(":"))
            except ValueError:
                raise CliError(f"--window {args.window!r} is not lo:hi, two integers") from None
            if lo > hi:
                raise CliError(f"--window {args.window}: lo > hi")
            window = (lo, hi)
        elif e is None:
            raise CliError("--e inf needs --window lo:hi, the start residues to enumerate")
        entries = classify_affine(args.n, e, omega_all_zero=bool(args.omega_zero),
                                  window=window)
        rows = affine_rows(entries)
    else:
        p = _parameters_from_args(args)
        if args.multicharge:
            try:
                charges = tuple(int(s) for s in args.multicharge.split(","))
            except ValueError:
                raise CliError(f"--multicharge {args.multicharge!r} is not a comma "
                               "list of integers") from None
            mc = Multicharge(p.e, charges)
        else:
            mc = Multicharge.from_parameters(p)
        entries = classify_cyclotomic(p, mc, args.n)
        rows = cyclotomic_rows(entries)
    text = _rows_to_csv(rows) if args.format == "csv" else _rows_to_json(rows)
    _emit(text, args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        with open(args.dump, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read dump: {exc}")
    A = load_algebra(blob)
    rep = wedderburn(A, radical(A), seed=args.seed)
    count = match = None
    try:
        mc = Multicharge.from_parameters(A.params)
        cls = classify_cyclotomic(A.params, mc, A.n)
        if A.variant == "ariki_koike":
            # the Hecke quotient only sees the contraction-free layer
            count = sum(1 for ent in cls if ent.f == 0)
        else:
            count = len(cls)
        match = rep.split and len(rep.blocks) == count
    except MultichargeScopeError as exc:
        rep.caveats.append(f"no classification count: {exc}")
    payload = rep.to_json(classification_count=count, match=match)
    _emit(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", args.out)
    if args.strict and not rep.split:
        raise CliError("semisimple quotient did not split over the ground field")
    return EXIT_OK


def cmd_semiadmissible(args) -> int:
    p = _parameters_from_args(args)
    d = semi_admissibility_degree(p, degree_cap=args.degree_cap)
    sys.stdout.write(f"{d}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .acceptance import CRITERIA, run_all
    only = None
    if args.only is not None:
        only = [s.strip() for s in args.only.split(",") if s.strip()]
        if not only:
            raise CliError(f"--only {args.only!r} selects no criterion")
        known = {cid for cid, _, _ in CRITERIA}
        unknown = set(only) - known
        if unknown:
            raise CliError(f"unknown criteria: {sorted(unknown)}; "
                           f"known: {sorted(known)}")
    results = run_all(seed=args.seed, only=only)
    all_ok = all(r.passed for r in results)
    if args.format == "json":
        payload = [{"id": r.cid, "title": r.title, "passed": r.passed,
                    "detail": r.detail, "seconds": round(r.seconds, 2)}
                   for r in results]
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = []
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"{mark} {r.cid:14s} {r.seconds:7.1f}s  {r.detail}")
        lines.append(f"{'OK' if all_ok else 'FAILED'}: "
                     f"{sum(r.passed for r in results)}/{len(results)} criteria")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_ok else EXIT_VALIDATION


def make_parser() -> _Parser:
    ap = _Parser(prog="cycbmw",
                 description="cyclotomic BMW algebra workbench (exact arithmetic)")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an algebra and dump/report it")
    b.add_argument("--n", type=int, required=True)
    _add_param_flags(b)
    b.add_argument("--variant", choices=("bmw", "ariki_koike"), default="bmw")
    b.add_argument("--degree-cap", type=int, default=None)
    b.add_argument("--out", help="write the canonical JSON dump here")
    b.set_defaults(fn=cmd_build)

    c = sub.add_parser("classify", help="enumerate simple-module index sets")
    c.add_argument("--mode", choices=("affine", "cyclotomic"), required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--e", help="quantum characteristic (affine mode); int or 'inf'")
    c.add_argument("--omega-zero", action="store_true", default=None,
                   help="affine mode: assume the whole omega sequence vanishes")
    c.add_argument("--window", help="inclusive start-residue window lo:hi for e=inf")
    c.add_argument("--multicharge", help="comma list s_1..s_r (cyclotomic mode)")
    _add_param_flags(c)
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_classify)

    a = sub.add_parser("analyze", help="radical/Wedderburn report for a dump")
    a.add_argument("dump", help="algebra dump file from `build --out`")
    a.add_argument("--strict", action="store_true",
                   help="exit 1 when the quotient does not split")
    a.add_argument("--out")
    a.add_argument("--seed", type=int, default=DEFAULT_SEED)
    a.set_defaults(fn=cmd_analyze)

    s = sub.add_parser("semiadmissible",
                       help="print the semi-admissibility degree d")
    _add_param_flags(s)
    s.add_argument("--degree-cap", type=int, default=None)
    s.set_defaults(fn=cmd_semiadmissible)

    v = sub.add_parser("verify", help="run the acceptance criteria")
    v.add_argument("--only", help="comma list of criterion ids")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except CompletionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE
    except (ValueError, AnalysisError, OSError) as exc:
        # ParameterError, FieldError, BuildError and the combinatorics
        # scope/range errors are all ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
