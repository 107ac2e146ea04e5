"""Command-line interface: run tests on data files, tabulate distributions,
critical values, and power estimates.

Exit codes: 0 success, 2 malformed input or an output path that cannot be
written, 3 parameter/constraint violation, 4 exact-computation budget
exceeded, 5 a result failed its numerical checks.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

from .errors import BudgetExceededError, NumericalError, ParameterError
from .inference import (
    POWER_COLUMNS,
    AlternativeSpec,
    PowerEstimate,
    SeededRng,
    _validate_statistic,
    critical_value,
    mc_power,
    power_row,
    randomized_decision,
)
from .null_dist import null_distribution
from .statistics import Sample, orders_from_rates, statistic_bundle

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARAMETER = 3
EXIT_BUDGET = 4
EXIT_NUMERICAL = 5


class InputFormatError(ValueError):
    """Raised for unreadable or malformed input data."""


# ---------------------------------------------------------------------------
# input handling

def _tokenize(path: str) -> list[list[str]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    rows = []
    shortest = sys.maxsize  # the fewest cells of a row so far
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        # an empty comma-delimited cell keeps its place; trailing ones end the row
        cells = line.rstrip(", \t").split(",") if "," in line else line.split()
        # a whitespace-delimited row can only end early: one longer than an
        # earlier row lost a cell before its end, and its cells have shifted
        if "," not in line and len(cells) > shortest:
            raise InputFormatError(
                f"{path} line {number}: {len(cells)} whitespace-separated cells after a"
                f" row of {shortest}; a cell is missing before the row's end"
            )
        shortest = min(shortest, len(cells))
        rows.append([t.strip() for t in cells])
    if not rows:
        raise InputFormatError(f"{path} contains no data")
    return rows


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_sample_column(path: str, column: Optional[str] = None) -> list[float]:
    """Read one numeric column from a delimited text file.

    Single-column files need no selector; files with a header row and
    several columns need `column` (a header name or 0-based index). A
    column may end early, at an empty cell or a shorter row; a value after
    that, like a non-numeric or non-finite cell, is a hard error, and so is a
    whitespace-delimited row longer than an earlier row, which cannot say
    which of its cells is missing.
    """
    rows = _tokenize(path)
    header: Optional[list[str]] = None
    if not all(_is_number(t) for t in rows[0] if t):
        header = rows[0]
        rows = rows[1:]
        if not rows:
            raise InputFormatError(f"{path} has a header but no data rows")
    width = max(len(row) for row in rows)
    if width == 1 and column is None:
        index = 0
    else:
        if column is None:
            raise InputFormatError(
                f"{path} has {width} columns; select one with a column name or index"
            )
        if header is not None and column in header:
            index = header.index(column)
        else:
            try:
                index = int(column)
            except ValueError:
                raise InputFormatError(
                    f"column {column!r} not found in {path} (header: {header})"
                ) from None
            if index < 0:
                raise InputFormatError(f"column index {index} in {path} is negative")
    values = []
    end = None  # the row where the column ended early, if it did
    for row_number, row in enumerate(rows, start=1):
        token = row[index] if index < len(row) else ""
        if not token:
            end = end or row_number
            continue
        if end is not None:
            raise InputFormatError(
                f"{path} row {row_number}: value {token!r} after the column's end at row {end}"
            )
        if not _is_number(token):
            raise InputFormatError(f"{path} row {row_number}: non-numeric cell {token!r}")
        value = float(token)
        if not math.isfinite(value):
            raise InputFormatError(f"{path} row {row_number}: non-finite cell {token!r}")
        values.append(value)
    if not values:
        raise InputFormatError(f"{path}: selected column is empty")
    return values


# ---------------------------------------------------------------------------
# output handling

def fraction_to_decimal(value: Fraction, digits: int = 18) -> str:
    """Exact decimal rendering of a rational, rounded at `digits` places."""
    scaled = value.numerator * 10**digits
    quotient, remainder = divmod(scaled, value.denominator)
    if 2 * remainder >= value.denominator:
        quotient += 1
    sign = "-" if quotient < 0 else ""
    quotient = abs(quotient)
    whole, frac = divmod(quotient, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def _format_cell(value) -> str:
    if isinstance(value, Fraction):
        return fraction_to_decimal(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    if value is None:
        return ""
    return str(value)


def _emit(args, header: Sequence[str], rows: list[dict], config: dict) -> None:
    if args.format == "json":
        import json

        payload = {"config": config, "results": rows}
        text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    else:
        text = _csv_text(header, rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: Sequence[str], rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(row.get(key)) for key in header])
    return buffer.getvalue()


def _json_default(value):
    if isinstance(value, Fraction):
        return fraction_to_decimal(value)
    raise TypeError(f"not JSON serializable: {value!r}")


def _int_list(text: str) -> list[int]:
    return _nonempty([int(tok) for tok in text.split(",") if tok.strip()])


def _float_list(text: str) -> list[float]:
    return _nonempty([float(tok) for tok in text.split(",") if tok.strip()])


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


# ---------------------------------------------------------------------------
# subcommands

def _resolve_orders(args, n: int) -> tuple[int, int]:
    rates = args.rho1 is not None or args.rho2 is not None
    if args.r is not None or args.s is not None:
        if rates:
            raise ParameterError("give --r/--s or --rho1/--rho2, not both")
        if args.r is None or args.s is None:
            raise ParameterError("give both --r and --s, or rates instead")
        return args.r, args.s
    if rates:
        if args.rho1 is None or args.rho2 is None:
            raise ParameterError("give both --rho1 and --rho2")
        return orders_from_rates(n, args.rho1, args.rho2)
    raise ParameterError("cell counts required: either --r/--s or --rho1/--rho2")


def cmd_test(args) -> int:
    x_values = read_sample_column(args.training, args.training_col)
    y_values = read_sample_column(args.test, args.test_col)
    x = Sample(tuple(x_values), label="training")
    y = Sample(tuple(y_values), label="test")
    r, s = _resolve_orders(args, len(y))

    if set(x.values) & set(y.values):
        print(
            "warning: ties across samples; exact distribution theory "
            "assumes continuous data and is approximate here",
            file=sys.stderr,
        )

    bundle = statistic_bundle(x, y, r, s)
    crit = critical_value(len(x), len(y), r, s, args.alpha)
    decision = randomized_decision(
        bundle.max_sum,
        crit.c,
        Fraction(args.alpha),
        crit.alpha1,
        crit.alpha2,
        rng=SeededRng(args.seed),
    )
    dist = null_distribution(len(x), len(y), r, s)
    tail_prob = dist.tail(bundle.max_sum)

    fv = bundle.frequencies
    report = {
        "m": len(x),
        "n": len(y),
        "r": r,
        "s": s,
        "f_p": ";".join(str(v) for v in fv.f_p),
        "f_e": ";".join(str(v) for v in fv.f_e),
        "max_precedence": bundle.max_precedence,
        "max_exceedance": bundle.max_exceedance,
        "max_sum": bundle.max_sum,
        "precedence_count": bundle.precedence_count,
        "exceedance_count": bundle.exceedance_count,
        "count_sum": bundle.count_sum,
        "alpha": args.alpha,
        "c": crit.c,
        "alpha1": crit.alpha1,
        "alpha2": crit.alpha2,
        "phi": float(decision.phi),
        "outcome": decision.outcome,
        "rejected": decision.rejected,
        "tail_prob": tail_prob,
    }
    config = {
        "subcommand": "test",
        "training": args.training,
        "test": args.test,
        "r": r,
        "s": s,
        "alpha": args.alpha,
        "seed": args.seed,
    }
    _emit(args, list(report.keys()), [report], config)
    return EXIT_OK


def cmd_null_dist(args) -> int:
    dist = null_distribution(args.m, args.n, args.r, args.s, t_max=args.t_max)
    rows = [
        {
            "t": t,
            "pmf": dist.pmf_values[t],
            "cdf": dist.cdf_values[t],
        }
        for t in dist.support
    ]
    config = {
        "subcommand": "null-dist",
        "m": args.m,
        "n": args.n,
        "r": args.r,
        "s": args.s,
        "t_max": args.t_max,
    }
    _emit(args, ["t", "pmf", "cdf"], rows, config)
    return EXIT_OK


def cmd_critical_values(args) -> int:
    if args.rho is not None:
        if args.r is not None or args.s is not None:
            raise ParameterError("give --rho or --r and --s lists, not both")
        orders = [(rho, None, None) for rho in args.rho]
    elif args.r is None or args.s is None:
        raise ParameterError("give --rho or both --r and --s lists")
    else:
        orders = [(None, r, s) for r in args.r for s in args.s]
    rows = []
    for m, n, (rho, r, s) in product(args.m, args.n, orders):
        if rho is not None:
            r, s = orders_from_rates(n, rho, rho)
        crit = critical_value(m, n, r, s, args.alpha)
        rows.append({
            "m": m,
            "n": n,
            "rho": None if rho is None else f"{rho:g}",
            "r": r,
            "s": s,
            "c": crit.c,
            "alpha1": f"{float(crit.alpha1):.4f}",
            "alpha2": f"{float(crit.alpha2):.4f}",
        })
    config = {
        "subcommand": "critical-values",
        "m": args.m,
        "n": args.n,
        "rho": args.rho,
        "r": args.r,
        "s": args.s,
        "alpha": args.alpha,
    }
    _emit(args, ["m", "n", "rho", "r", "s", "c", "alpha1", "alpha2"], rows, config)
    return EXIT_OK


def _alternative_grid(args) -> list[AlternativeSpec]:
    kind, names = args.alternative, AlternativeSpec.KINDS[args.alternative]
    stray = [
        f"--{name}" for other in AlternativeSpec.KINDS.values() for name in other
        if name not in names and getattr(args, name) is not None
    ]
    if stray:
        raise ParameterError(f"{kind} alternative takes no {' or '.join(stray)}")
    *fixed, varied = names
    values = getattr(args, varied)
    if not values or any(getattr(args, name) is None for name in fixed):
        options = " and ".join(f"--{name}" for name in names)
        raise ParameterError(f"{kind} alternative needs {options} values")
    params = {name: getattr(args, name) for name in fixed}
    return [AlternativeSpec(kind, **params, **{varied: v}) for v in values]


def _order_pairs(args) -> list[tuple[int, int]]:
    if args.r is None or args.s is None:
        raise ParameterError("give --r and --s lists (zipped pairwise)")
    if len(args.r) != len(args.s):
        raise ParameterError("--r and --s lists must have equal length")
    return list(zip(args.r, args.s))


def _power_rows(args, statistics: list[str]) -> list[dict]:
    m, n, alpha = args.m, args.n, args.alpha
    pairs = _order_pairs(args)
    alternatives = _alternative_grid(args)
    exact = args.method == "exact"
    if exact:
        if statistics != ["T"]:
            raise ParameterError("exact power is available for the T statistic only")
        if args.alternative != "lehmann":
            raise ParameterError(
                "exact power is available under the Lehmann alternative only"
            )
        from .lehmann import exact_power  # loaded only here
    if not statistics:
        raise ParameterError("--statistics names none of T, V, Q")
    for stat, (r, s) in product(statistics, pairs):  # the whole grid, before any cell runs
        _validate_statistic(m, n, r, s, stat)
    rows = []
    for index, (stat, (r, s), alt) in enumerate(product(statistics, pairs, alternatives)):
        if exact:  # exact_power refuses an over-budget Lehmann law before the null table
            power = exact_power(m, n, r, s, alt.gamma, alpha)
            crit = critical_value(m, n, r, s, alpha)
            estimate = PowerEstimate(power, None, crit.c, float(crit.alpha1), float(crit.alpha2))
        else:
            estimate = mc_power(
                m, n, r, s, alpha, alt, stat, args.reps, SeededRng(args.seed, stream=index)
            )
        rows.append(power_row(m, n, r, s, stat, alt, alpha, estimate))
    return rows


def _write_curves(args, rows: list[dict]) -> None:
    directory = Path(args.curve_dir)
    directory.mkdir(parents=True, exist_ok=True)
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["statistic"], row["r"], row["s"]), []).append(row)
    for (stat, r, s), group in sorted(groups.items()):
        path = directory / f"curve_{stat}_r{r}_s{s}.csv"
        path.write_text(_csv_text(["param", "power"], group))


def cmd_power(args) -> int:
    """`power` (statistics fixed to T) and `compare` over one grid."""
    statistics = [tok.strip().upper() for tok in args.statistics.split(",") if tok.strip()]
    rows = _power_rows(args, statistics)
    if args.curve_dir:
        _write_curves(args, rows)
    config = {
        "subcommand": args.subcommand,
        "m": args.m,
        "n": args.n,
        "r": args.r,
        "s": args.s,
        "statistics": statistics,
        "alternative": args.alternative,
        "gamma": args.gamma,
        "rate": args.rate,
        "shape": args.shape,
        "scale": args.scale,
        "method": args.method,
        "alpha": args.alpha,
        "reps": args.reps,
        "seed": args.seed,
    }
    _emit(args, POWER_COLUMNS, rows, config)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.05, help="significance level")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_power_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--r", type=_int_list, help="comma list, zipped with --s")
    parser.add_argument("--s", type=_int_list, help="comma list, zipped with --r")
    parser.add_argument("--alternative", choices=tuple(AlternativeSpec.KINDS), default="lehmann")
    parser.add_argument("--gamma", type=_float_list, help="Lehmann exponents")
    parser.add_argument("--rate", type=_float_list, help="exponential rates")
    parser.add_argument("--shape", type=float, help="Weibull shape (fixed)")
    parser.add_argument("--scale", type=_float_list, help="Weibull scales")
    parser.add_argument("--method", choices=("exact", "mc"), default="mc")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--reps", type=int, default=100_000, help="Monte-Carlo replicates")
    parser.add_argument(
        "--curve-dir", default=None, help="also write one curve CSV per (r, s)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxpe",
        description=(
            "Two-sample tests based on maximal precedence/exceedance statistics"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_test = sub.add_parser("test", help="run the test on two data files")
    p_test.add_argument("--training", required=True, help="training-group file (X)")
    p_test.add_argument("--test", required=True, help="test-group file (Y)")
    p_test.add_argument("--training-col", default=None, help="column name or index")
    p_test.add_argument("--test-col", default=None, help="column name or index")
    p_test.add_argument("--r", type=int, default=None)
    p_test.add_argument("--s", type=int, default=None)
    p_test.add_argument("--rho1", type=float, default=None)
    p_test.add_argument("--rho2", type=float, default=None)
    p_test.add_argument("--seed", type=int, default=0, help="seeds the randomized decision")
    _add_common(p_test)
    p_test.set_defaults(func=cmd_test)

    p_null = sub.add_parser("null-dist", help="tabulate the exact null distribution")
    p_null.add_argument("--m", type=int, required=True)
    p_null.add_argument("--n", type=int, required=True)
    p_null.add_argument("--r", type=int, required=True)
    p_null.add_argument("--s", type=int, required=True)
    p_null.add_argument("--t-max", type=int, default=None)
    _add_common(p_null)  # its --alpha is unread, but callers pass it
    p_null.set_defaults(func=cmd_null_dist)

    p_crit = sub.add_parser("critical-values", help="tabulate exact critical values")
    p_crit.add_argument("--m", type=_int_list, required=True)
    p_crit.add_argument("--n", type=_int_list, required=True)
    p_crit.add_argument("--rho", type=_float_list, default=None)
    p_crit.add_argument("--r", type=_int_list, default=None)
    p_crit.add_argument("--s", type=_int_list, default=None)
    _add_common(p_crit)
    p_crit.set_defaults(func=cmd_critical_values)

    p_power = sub.add_parser("power", help="power of the max-sum test over a grid")
    _add_power_options(p_power)
    _add_common(p_power)
    p_power.set_defaults(func=cmd_power, statistics="T")

    p_cmp = sub.add_parser("compare", help="compare T, V, and Q test power")
    _add_power_options(p_cmp)
    p_cmp.add_argument("--statistics", default="T,V,Q")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_power)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # a failed read is already an InputFormatError
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
