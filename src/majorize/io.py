"""File formats and deterministic number formatting for the CLI.

Distributions travel as JSON objects {"values": [...]} (optional "label",
ignored on read) or as single-column CSV, one probability per line; the
format is picked by file extension. Numbers are emitted with 12
significant digits so identical inputs produce byte-identical files; the
tolerance model absorbs the rounding.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Union

from .config import Config
from .distribution import Distribution, LorenzCurve, make_distribution
from .errors import FileFormatError
from .order import TransferPlan, TTransform
from .smoothing import SmoothedResult

PathLike = Union[str, Path]


def format_float(x: float) -> str:
    """12-significant-digit decimal form; -0 normalized to 0."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return f"{x:.12g}"


def round_float(x: float) -> float:
    """The float that format_float's output parses back to."""
    return float(format_float(x))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FileFormatError(message)


def read_distribution(path: PathLike, config: Config = Config()) -> Distribution:
    """Parse a distribution file, applying the configured input policy.

    .json files must hold {"values": [numbers]}; .csv files one number
    per line (blank lines skipped). Anything else is rejected.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc
        _require(isinstance(obj, dict), f"{path}: expected a JSON object")
        _require("values" in obj, f'{path}: missing "values" key')
        values = obj["values"]
        _require(
            isinstance(values, list)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values),
            f'{path}: "values" must be a list of numbers',
        )
    elif suffix == ".csv":
        values = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: not a number: {line!r}") from exc
    else:
        raise FileFormatError(f"{path}: unsupported extension (use .json or .csv)")
    return make_distribution(values, config.input_policy, tau_norm=config.tau_norm)


def smoothed_result_to_json(sr: SmoothedResult) -> dict:
    """SmoothedResult as {"kind","delta","clamped","values","meta"}.

    meta lists the meta dataclass's fields in declaration order ({} when
    clamped), floats rounded like every other number.
    """
    meta = {} if sr.meta is None else asdict(sr.meta)
    return {
        "kind": sr.kind,
        "delta": round_float(sr.delta),
        "clamped": sr.clamped,
        "values": [round_float(v) for v in sr.result.values],
        "meta": {k: round_float(v) if isinstance(v, float) else v for k, v in meta.items()},
    }


def transfer_plan_to_json(plan: TransferPlan) -> dict:
    """Plan as {"steps": [{"i","j","t"}, ...], "k"}: O(k), no matrix."""
    return {
        "steps": [
            {"i": int(s.i), "j": int(s.j), "t": round_float(s.t)} for s in plan.steps
        ],
        "k": int(plan.k),
    }


def transfer_plan_from_json(obj: dict) -> TransferPlan:
    """Inverse of transfer_plan_to_json; i, j and k must be JSON integers."""

    def field(x: object, *types: type) -> object:
        # exact types: a JSON boolean is an int subclass, and int() would
        # truncate 1.9 or parse "1"
        _require(type(x) in types, f"malformed transfer plan: {x!r} is not {types[-1].__name__}")
        return x

    try:
        steps = tuple(
            TTransform(field(s["i"], int), field(s["j"], int), float(field(s["t"], int, float)))
            for s in obj["steps"]
        )
        return TransferPlan(steps, field(obj["k"], int))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed transfer plan: {exc}") from exc


def lorenz_to_csv(curve: LorenzCurve) -> str:
    lines = ["l,cumulative"]
    lines.extend(f"{l},{format_float(c)}" for l, c in curve.points)
    return "\n".join(lines) + "\n"


def lorenz_table_to_csv(
    base: LorenzCurve, steep: LorenzCurve, flat: LorenzCurve
) -> str:
    """Three curves side by side: columns l, base, steepest, flattest."""
    lines = ["l,base,steepest,flattest"]
    rows = zip(base.cumulative, steep.cumulative, flat.cumulative)
    lines.extend(
        f"{l},{format_float(b)},{format_float(s)},{format_float(f)}"
        for l, (b, s, f) in enumerate(rows)
    )
    return "\n".join(lines) + "\n"


def write_json(path: PathLike, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def write_text(path: PathLike, text: str) -> None:
    Path(path).write_text(text)
