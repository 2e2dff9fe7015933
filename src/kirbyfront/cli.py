"""Command-line interface.

Subcommands::

    parse <file>                      validate and echo the canonical form
    apply <file> --move <name> --site e0..e1/s0..s1 [args] -o <out>
    invariants <file> [--json]        classical invariants, census, H1
    render <file> -o <svg>
    normalize <file> [-o <out>]
    ribbon <subcmd>                   invariants | normalize --target ...
    verify <scenario id> | --all [--json]
    framing-check --n <n> --samples <s> --tol <t> --seed <x>

Exit codes: 0 pass, 1 internal error (with a traceback), 2 precondition
failure, 3 assertion/verification failure, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import ParseError, parse_front, serialize_front
from .invariants import (
    InvariantError,
    all_classical_invariants,
    handle_census,
    homology_presentation,
    linking_matrix,
)
from .moves import MoveError, normalize
from .render import render_svg
from .ribbon import (
    RibbonError,
    clasp_transpose,
    normalize_surface,
    parse_ribbon,
    serialize_ribbon,
    surface_invariants,
)
from .scenarios import SCENARIOS, verify_scenario
from .scripts import MoveStep, MoveScript, parse_site, run_script

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_ASSERTION = 3
EXIT_IO = 4


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_fail(f"cannot read {path}: {exc}", EXIT_IO))


class _LoadError(Exception):
    """An input file that does not parse: :func:`main` exits 4 with its message."""


def _load(path, parse, error):
    """``parse`` of the text of ``path``; an ``error`` it raises exits 4."""
    try:
        return parse(_read(path))
    except error as exc:
        raise _LoadError(str(exc)) from exc


def _write(path, text):
    if path == "-" or path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(_fail(f"cannot write {path}: {exc}", EXIT_IO))


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_parse(args):
    # parse_front refuses a word that fails validate_diagram
    sys.stdout.write(serialize_front(_load(args.file, parse_front, ParseError)))
    return EXIT_OK


def cmd_apply(args):
    d = _load(args.file, parse_front, ParseError)
    step_args = {}
    for kv in args.arg or []:
        k, _, v = kv.partition("=")
        step_args[k] = v
    try:
        site = parse_site(args.site, args.components)
        step = MoveStep(move=args.move, site=site, args=step_args)
        final, _log = run_script(MoveScript(initial=d, steps=(step,)))
    except MoveError as exc:
        return _fail(str(exc), EXIT_PRECONDITION)
    _write(args.output, serialize_front(final))
    return EXIT_OK


def cmd_invariants(args):
    d = _load(args.file, parse_front, ParseError)
    out = {}
    census = handle_census(d)
    out["census"] = {str(k): v for k, v in sorted(census.counts.items())}
    out["chi"] = census.euler
    try:
        per = all_classical_invariants(d)
        out["components"] = {
            str(cid): {"tb": inv.tb, "rot": inv.rot, "writhe": inv.writhe}
            for cid, inv in sorted(per.items())
        }
        lk = linking_matrix(d)
        out["linking"] = [list(row) for row in lk.matrix]
        out["over_ones"] = {
            f"{a}/{b}": v for (a, b), v in sorted(lk.over_ones.items())
        }
        out["h1"] = homology_presentation(d)
    except InvariantError as exc:
        out["note"] = str(exc)
    if args.json:
        json.dump(out, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for key in ("components", "census", "chi", "linking", "over_ones", "h1", "note"):
            if key in out:
                print(f"{key}: {out[key]}")
    return EXIT_OK


def cmd_render(args):
    d = _load(args.file, parse_front, ParseError)
    _write(args.output, render_svg(d))
    return EXIT_OK


def cmd_normalize(args):
    d = _load(args.file, parse_front, ParseError)
    _write(args.output, serialize_front(normalize(d)))
    return EXIT_OK


def cmd_ribbon(args):
    s = _load(args.file, parse_ribbon, RibbonError)
    if args.ribbon_cmd == "invariants":
        inv = surface_invariants(s)
        out = {
            "genus": inv.genus,
            "boundary_components": inv.boundary_components,
            "euler": inv.euler,
            "orientable": inv.orientable,
        }
        json.dump(out, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return EXIT_OK
    # argparse admits only the two subcommands, so this one is normalize
    try:
        steps = normalize_surface(s, args.target)
    except RibbonError as exc:
        return _fail(str(exc), EXIT_PRECONDITION)
    cur = s
    for (disk, slot) in steps:
        cur = clasp_transpose(cur, disk, slot)
    report = {
        "steps": [[d_, k] for (d_, k) in steps],
        "final": serialize_ribbon(cur),
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_verify(args):
    ids = sorted(SCENARIOS) if args.all else [args.scenario]
    known = f"known ids: {', '.join(sorted(SCENARIOS))}"
    if ids == [None]:
        return _fail(f"verify needs a scenario id or --all; {known}", EXIT_PRECONDITION)
    if ids[0] not in SCENARIOS:
        return _fail(f"unknown scenario {ids[0]!r}; {known}", EXIT_PRECONDITION)
    reports = [verify_scenario(i) for i in ids]
    ok = all(r["pass"] for r in reports)
    if args.json:
        json.dump(reports, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for r in reports:
            status = "PASS" if r["pass"] else "FAIL"
            print(f"{r['id']}: {status} ({r['wall_time']:.2f}s)")
            if r["error"]:
                print(f"  {r['error']}")
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_framing_check(args):
    # imported here so that no other command pays for importing numpy
    from .framing import framing_map_check

    try:
        report = framing_map_check(
            args.n, samples=args.samples, tol=args.tol, seed=args.seed
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_PRECONDITION)
    out = report.as_dict()
    if args.json:
        json.dump(out, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for key, value in sorted(out.items()):
            print(f"{key}: {value}")
    return EXIT_OK if report.passed else EXIT_ASSERTION


def build_parser():
    ap = argparse.ArgumentParser(
        prog="kirbyfront",
        description="Rewriting engine for Legendrian Kirby diagrams in front form",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="validate and canonicalize a .front file")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("apply", help="apply one move")
    p.add_argument("file")
    p.add_argument("--move", required=True)
    p.add_argument("--site", help="e0..e1/s0..s1")
    p.add_argument("--components", help="comma-separated component ids")
    p.add_argument("--arg", action="append", help="key=value move argument")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("invariants", help="classical invariants, census, H1")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("render", help="render to SVG")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("normalize", help="greedy reduction to normal form")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("ribbon", help="disk-band surface operations")
    rsub = p.add_subparsers(dest="ribbon_cmd", required=True)
    ri = rsub.add_parser("invariants")
    ri.add_argument("file")
    ri.set_defaults(func=cmd_ribbon)
    rn = rsub.add_parser("normalize")
    rn.add_argument("file")
    rn.add_argument("--target", choices=["planar", "connected"], required=True)
    rn.set_defaults(func=cmd_ribbon)

    p = sub.add_parser("verify", help="replay bundled scenarios")
    p.add_argument("scenario", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("framing-check", help="verify the framing matrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_framing_check)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _LoadError as exc:
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
