"""Command line front end.

Expressions arrive through --expr or on stdin (the flag wins); derivations
arrive as JSON files of the shape {"ring", "dx", "dy", "dz", "dt"} through
--file or stdin.  Exit status: 0 when the requested check passes, 1 when a
well-posed check fails (incompatible derivation, nilpotency not certified,
locus not invariant, verification failures), 2 for unusable input.

    russell nf --ring A --expr "x^2*y"
    russell lnd --file d1.json --bound 32
    russell verify-paper --seed 0 --json
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .derivations import (CompatibilityError, Derivation, LOCI, degree_ell,
                          derivation_from_json, derivation_to_json, flow,
                          induced_graded, invariance_check, kernel_chain, lnd_bounded)
from .parse import ParseError, parse
from .quotient import ring_by_name, random_point
from .weights import deg, gr

_RING_NAMES = ("A", "B", "Neil", "V")


def _read_expr(args) -> str:
    if args.expr is not None:
        return args.expr
    text = sys.stdin.read()
    if not text.strip():
        raise ValueError("no expression given; pass --expr or pipe one on stdin")
    return text


def _load_derivation(args) -> Derivation:
    if getattr(args, "file", None):
        with open(args.file) as fh:
            data = json.load(fh)
    else:
        raw = sys.stdin.read()
        if not raw.strip():
            raise ValueError("no derivation given; pass --file or pipe JSON on stdin")
        data = json.loads(raw)
    if not isinstance(data, dict):
        raise ValueError("derivation JSON must be an object")
    return derivation_from_json(data)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_nf(args) -> int:
    ring = ring_by_name(args.ring)
    text = str(ring.nf(_read_expr(args)))
    _emit(args, {"ring": ring.name, "normal_form": text}, text)
    return 0


def cmd_deg(args) -> int:
    ring = ring_by_name(args.ring)
    n = deg(ring.nf(_read_expr(args)))
    _emit(args, {"ring": ring.name, "deg": n}, "-inf" if n is None else str(n))
    return 0


def cmd_gr(args) -> int:
    value = gr(ring_by_name("A").nf(_read_expr(args)))
    text = str(value)
    _emit(args, {"gr": text, "deg": deg(value)}, text)
    return 0


def cmd_parse_check(args) -> int:
    ring = ring_by_name(args.ring)
    text = str(parse(_read_expr(args), ring.ctx))
    _emit(args, {"ring": ring.name, "canonical": text}, text)
    return 0


def cmd_check_derivation(args) -> int:
    try:
        d = _load_derivation(args)
    except CompatibilityError as exc:
        _emit(args, {"compatible": False, "residue": str(exc.residue)},
              f"incompatible: residue {exc.residue}")
        return 1
    payload = derivation_to_json(d)
    payload["compatible"] = True
    _emit(args, payload, f"compatible derivation on ring {d.ring.name}")
    return 0


def cmd_lnd(args) -> int:
    report = lnd_bounded(_load_derivation(args), bound=args.bound)
    orders = " ".join(f"{name}:{k}" for name, k in sorted(report.orders.items()))
    _emit(args, report.to_json(), f"{report.verdict} (bound {report.bound}) orders {orders}")
    return 0 if report.verdict == "LocallyNilpotent" else 1


def cmd_ell(args) -> int:
    ell = degree_ell(_load_derivation(args))
    _emit(args, {"ell": ell}, str(ell))
    return 0


def cmd_induce(args) -> int:
    delta = induced_graded(_load_derivation(args), bound=args.bound)
    payload = derivation_to_json(delta)
    text = "\n".join(f"{key} = {payload[key]}" for key in ("dx", "dy", "dz", "dt"))
    _emit(args, payload, f"ring {payload['ring']}\n{text}")
    return 0


def cmd_flow(args) -> int:
    E = flow(_load_derivation(args), "tau", bound=args.bound)
    images = {name: str(img) for name, img in E.images.items()}
    payload = {"ring": E.ring.name, "param": "tau", "images": images}
    text = "\n".join(f"{name} -> {images[name]}" for name in E.ring.ctx.variables)
    _emit(args, payload, text)
    return 0


def cmd_invariance(args) -> int:
    invariant = invariance_check(_load_derivation(args), args.locus)
    _emit(args, {"locus": args.locus, "invariant": invariant},
          f"{args.locus}: {'invariant' if invariant else 'not invariant'}")
    return 0 if invariant else 1


def cmd_kernel_chain(args) -> int:
    d = _load_derivation(args)
    if args.expr is None and not args.file:
        raise ValueError("kernel-chain needs --expr when the derivation comes from stdin")
    start = d.ring.nf(_read_expr(args))
    nu, bottom = kernel_chain(d, start, bound=args.bound)
    n = deg(bottom)
    text = str(bottom)
    _emit(args, {"steps": nu, "element": text, "deg": n},
          f"steps {nu}, element {text}, deg {'-inf' if n is None else n}")
    return 0


def cmd_random_point(args) -> int:
    pt = random_point(args.surface, seed=args.seed)
    as_text = {name: str(q) for name, q in pt.items()}
    _emit(args, {"surface": args.surface, "point": as_text},
          "\n".join(f"{name} = {val}" for name, val in as_text.items()))
    return 0


def cmd_verify_paper(args) -> int:
    from .verifier import all_passed, format_report, report_to_json, run_all
    results = run_all(seed=args.seed)
    if args.json:
        print(json.dumps(report_to_json(results), indent=2))
    else:
        print(format_report(results))
    return 0 if all_passed(results) else 1


def _add_expr_flags(sub, ring_choices=_RING_NAMES) -> None:
    if ring_choices:
        sub.add_argument("--ring", choices=ring_choices, default="A")
    sub.add_argument("--expr", help="expression text; read from stdin when absent")


def _add_derivation_flags(sub, bound: bool = True) -> None:
    sub.add_argument("--file", help="derivation JSON file; read from stdin when absent")
    if bound:
        sub.add_argument("--bound", type=int, default=32,
                         help="nilpotency search bound (default 32)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="russell",
        description="exact computations on the Russell cubic and its degeneration")
    commands = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("nf", cmd_nf, "normal form of an expression in a quotient ring"),
        ("deg", cmd_deg, "filtration degree of an expression"),
        ("gr", cmd_gr, "top weight part of an expression of ring A, in ring B"),
        ("parse-check", cmd_parse_check, "parse an expression and print its canonical form"),
        ("check-derivation", cmd_check_derivation, "validate a derivation file"),
        ("lnd", cmd_lnd, "bounded local nilpotency certification"),
        ("ell", cmd_ell, "degree of a derivation along the weight filtration"),
        ("induce", cmd_induce, "induced homogeneous derivation on ring B"),
        ("flow", cmd_flow, "exponential flow of a locally nilpotent derivation"),
        ("invariance", cmd_invariance, "invariance of a distinguished locus"),
        ("kernel-chain", cmd_kernel_chain, "iterate a derivation into its kernel"),
        ("random-point", cmd_random_point, "sample a rational point of a surface"),
        ("verify-paper", cmd_verify_paper, "run the full verification suite"),
    ]
    subs = {}
    for name, func, help_text in specs:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--json", action="store_true", help="machine readable output")
        sub.set_defaults(func=func)
        subs[name] = sub

    for name in ("nf", "deg", "parse-check"):
        _add_expr_flags(subs[name])
    _add_expr_flags(subs["gr"], ring_choices=None)
    for name in ("check-derivation", "ell"):
        _add_derivation_flags(subs[name], bound=False)
    for name in ("lnd", "induce", "flow", "kernel-chain"):
        _add_derivation_flags(subs[name])
    subs["invariance"].add_argument("--file", help="derivation JSON file; stdin when absent")
    subs["invariance"].add_argument("--locus", choices=LOCI, required=True)
    subs["kernel-chain"].add_argument("--expr", help="starting expression (default: stdin)")
    subs["random-point"].add_argument("--surface", choices=("X", "W"), default="X")
    subs["random-point"].add_argument("--seed", type=int, default=0)
    subs["verify-paper"].add_argument("--seed", type=int, default=0)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of main and reused after it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error at position {exc.position}: {exc.message}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
