"""Command-line interface.

Subcommands: check, approx, distance, smooth, lorenz. Exit codes: 0 for
success (for `check`: the first input majorizes the second), 1 for a
negative semantic result (incomparable/reverse order, failed witness or
verification), 2 for bad input or usage. Output numbers carry 12
significant digits, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from .config import DEFAULT_TAU, DEFAULT_TAU_NORM, Config
from .errors import MajorizeError
from .io import (
    format_float,
    lorenz_table_to_csv,
    lorenz_to_csv,
    read_distribution,
    smoothed_result_to_json,
    write_json,
    write_text,
)
from .distribution import lorenz
from .order import first_failing_prefix, majorization_distance, majorizes
from .schur import brute_force_extremum, extremal_point, parse_function_spec
from .smoothing import flattest, lorenz_flattest, lorenz_steepest, steepest


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_check(args: argparse.Namespace, config: Config) -> int:
    p = read_distribution(args.p_file, config)
    q = read_distribution(args.q_file, config)
    p_wins = majorizes(p, q, tau=config.tau)
    q_wins = majorizes(q, p, tau=config.tau)
    print(f"p majorizes q: {_yes_no(p_wins)}")
    print(f"q majorizes p: {_yes_no(q_wins)}")
    if not p_wins:
        print(f"first failing prefix p->q: {first_failing_prefix(p, q, tau=config.tau)}")
    if not q_wins:
        print(f"first failing prefix q->p: {first_failing_prefix(q, p, tau=config.tau)}")
    print(f"delta_star p->q: {format_float(majorization_distance(p, q))}")
    print(f"delta_star q->p: {format_float(majorization_distance(q, p))}")
    return 0 if p_wins else 1


def cmd_approx(args: argparse.Namespace, config: Config) -> int:
    p = read_distribution(args.p_file, config)
    sr = (steepest if args.kind == "steepest" else flattest)(p, args.delta)
    # stdout and --out share one dict; reformatting its rounded floats is exact
    doc = smoothed_result_to_json(sr)
    print(f"kind: {doc['kind']}")
    print(f"delta: {format_float(doc['delta'])}")
    print(f"clamped: {_yes_no(doc['clamped'])}")
    print("values: " + " ".join(format_float(v) for v in doc["values"]))
    for key, value in doc["meta"].items():
        print(f"{key}: {format_float(value) if isinstance(value, float) else value}")
    if args.out:
        write_json(args.out, doc)
    if args.lorenz_out:
        curve_fn = lorenz_steepest if args.kind == "steepest" else lorenz_flattest
        write_text(args.lorenz_out, lorenz_to_csv(curve_fn(p, args.delta)))
    return 0


def cmd_distance(args: argparse.Namespace, config: Config) -> int:
    p = read_distribution(args.p_file, config)
    q = read_distribution(args.q_file, config)
    delta_star = majorization_distance(p, q)
    print(f"delta_star: {format_float(delta_star)}")
    if majorizes(p, q, tau=config.tau):
        print("note: p already majorizes q")
    up = majorizes(steepest(p, delta_star).result, q, tau=config.tau)
    down = majorizes(p, flattest(q, delta_star).result, tau=config.tau)
    print(f"witness steepest(p, delta_star) majorizes q: {'PASS' if up else 'FAIL'}")
    print(f"witness p majorizes flattest(q, delta_star): {'PASS' if down else 'FAIL'}")
    return 0 if up and down else 1


def cmd_smooth(args: argparse.Namespace, config: Config) -> int:
    p = read_distribution(args.p_file, config)
    f = parse_function_spec(args.function, config.base)
    kind, point = extremal_point(f, p, args.delta, args.mode)
    value = f(point)
    print(f"function: {f.name} ({f.direction})")
    print(f"mode: {args.mode}")
    print(f"delta: {format_float(args.delta)}")
    print(f"evaluated_at: {kind}")
    print(f"value: {format_float(value)}")
    if args.verify is None:
        return 0
    seed = int(os.environ.get("MAJORIZE_SEED", "0"))
    oracle = brute_force_extremum(f, p, args.delta, args.verify, seed, args.mode)
    gap = value - oracle
    ok = abs(gap) <= config.tau
    print(f"oracle_value: {format_float(oracle)}")
    print(f"gap: {format_float(gap)}")
    print(f"verify: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_lorenz(args: argparse.Namespace, config: Config) -> int:
    p = read_distribution(args.p_file, config)
    if args.delta is None:
        text = lorenz_to_csv(lorenz(p))
    else:
        text = lorenz_table_to_csv(
            lorenz(p),
            lorenz_steepest(p, args.delta),
            lorenz_flattest(p, args.delta),
        )
    if args.out:
        write_text(args.out, text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majorize",
        description="Majorization predicates, extremal l1 perturbations, "
        "Lorenz curves, and smoothed order-monotone functionals.",
    )
    parser.add_argument("--tau", type=float, default=DEFAULT_TAU,
                        help="comparison tolerance (default 1e-9)")
    parser.add_argument("--tau-norm", type=float, default=DEFAULT_TAU_NORM,
                        help="normalization tolerance (default 1e-7)")
    parser.add_argument("--base", choices=["2", "e"], default="2",
                        help="log base for entropies (default 2)")
    parser.add_argument("--input-policy", choices=["reject", "renormalize"],
                        default="reject", help="how to treat unnormalized input")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check", help="compare two distributions in the majorization order")
    s.add_argument("p_file")
    s.add_argument("q_file")
    s.set_defaults(handler=cmd_check)

    s = sub.add_parser("approx", help="extremal perturbation within an l1 budget")
    s.add_argument("p_file")
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--kind", choices=["steepest", "flattest"], required=True)
    s.add_argument("--out", help="write the result as JSON here")
    s.add_argument("--lorenz-out", help="write the result's Lorenz curve as CSV here")
    s.set_defaults(handler=cmd_approx)

    s = sub.add_parser("distance", help="least budget making p cover q, with witnesses")
    s.add_argument("p_file")
    s.add_argument("q_file")
    s.set_defaults(handler=cmd_distance)

    s = sub.add_parser("smooth", help="extremum of a functional over the l1 ball")
    s.add_argument("p_file")
    s.add_argument("--function", required=True,
                   help='"shannon", "renyi:<alpha>" (inf allowed), or "sum_powers:<alpha>"')
    s.add_argument("--mode", choices=["max", "min"], required=True)
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--verify", type=int, metavar="N",
                   help="cross-check against N ball samples (seed: MAJORIZE_SEED)")
    s.set_defaults(handler=cmd_smooth)

    s = sub.add_parser("lorenz", help="Lorenz curve CSV, optionally with both perturbations")
    s.add_argument("p_file")
    s.add_argument("--delta", type=float)
    s.add_argument("--out", help="write CSV here instead of stdout")
    s.set_defaults(handler=cmd_lorenz)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        config = Config(
            tau=args.tau,
            tau_norm=args.tau_norm,
            base=2.0 if args.base == "2" else math.e,
            input_policy=args.input_policy,
        )
        return args.handler(args, config)
    except (MajorizeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
