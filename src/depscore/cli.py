"""Command-line surface: measure reports, ranking, equivalent sample size, and
experiment execution, over the files that :mod:`depscore._read` reads.

A measure that is undefined for a pair, by the one rule of
`measures.score` (dof below 1 for a dof-based measure, both marginal
entropies 0 for `ni`), prints as `nan`, with one `#` line naming the rule
above the values; `rank` puts such candidates last. A column with a single
label is a 2-state variable whose second state is empty, so it falls under
the same rule.

`ess --curve NPRIME_MAX` also tabulates both sides of the ESS constraint; it
is the one command that writes that curve. The curve is built, and written
to `--out`, before the root is solved, so a table with no root still gets
its curve file, while the command exits 3 with nothing on stdout.
`experiment` runs the seeded studies fig2 and fig3.

Every command is deterministic given its flags (plus `--seed` where
relevant): output contains no timestamps or environment state. Exit codes:
0 success; 2 usage errors, found before any output: an empty, malformed or
unknown entry in `--n-values`, `--z-grid` or `--measures`, a `--curve` not
finite and >= 0, a `--curve-points` outside 1..MAX_CURVE_POINTS, an `ess`
`--curve-points` or `--out` without `--curve`, a `fig2 --z` or `fig3 --z-grid`
(the other study's flag), or an `--alpha` that is not a number strictly
between 0 and 1;
3 no-root (equivalent sample size); 1 other input or domain errors, among them
a fig3 n above `experiments.FIG3_MAX_N`, a study n or a count total of 2**63
or more, a dataset header that names a column twice, an unknown column (the
error names it, the number of columns and the first five), and an array too
large to allocate (`error: out of memory`). Nothing is printed to stdout
unless the exit code is 0.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from ._read import Dataset, read_count_table, read_dataset, read_input
from .ess import NoRootError, constraint_lhs, constraint_rhs, solve_ess
from .experiments import (
    DEFAULT_MEASURES,
    format_curve,
    run_discretization_experiment,
    run_feature_selection_experiment,
)
from .measures import MeasureKind, _log_p, report
from .ranking import rank, score_candidates, selection_margin
from .tables import DofMode, make_prob_table

# printed once above a report or ranking that holds an undefined (nan) value
_UNDEFINED_NOTE = ("# nan: undefined measure (dof-based measures need dof >= 1, ni a marginal "
                  "entropy above 0); undefined candidates rank last")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_ROOT = 3
MAX_CURVE_POINTS = 10_000  # most grid points of an ESS curve; each is one output row


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _record(obj) -> str:
    """One ``name<TAB>value`` line per field of the dataclass ``obj``."""
    return "".join(f"{f.name}\t{_fmt(getattr(obj, f.name))}\n" for f in fields(obj))


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_measure(args) -> int:
    # a count table, unless --pair names columns or the first row is not all integers
    data = read_input(args.input, "empty input", dataset=True if args.pair else None)
    table, notes = data, []
    if isinstance(data, Dataset):
        pair = args.pair or data.names
        if len(pair) != 2:
            raise ValueError("--pair NAME NAME required for datasets with more than two columns")
        table = data.pair_table(*pair)
        notes = [f"# labels {nm}: " + " ".join(data.labels[data.column(nm)]) for nm in pair]
    rep = report(table, DofMode(args.dof))
    if any(math.isnan(getattr(rep, f.name)) for f in fields(rep)):
        notes.append(_UNDEFINED_NOTE)
    _emit("".join(line + "\n" for line in notes) + _record(rep), args.out)
    return EXIT_OK


def _cmd_rank(args) -> int:
    ds = read_dataset(args.input)
    cls = args.class_column
    kind = MeasureKind(args.measure)
    mode = DofMode(args.dof)
    tables = [(nm, ds.pair_table(nm, cls)) for nm in ds.names if nm != cls]
    ranked = rank(score_candidates(tables, kind, mode))
    lines = [f"# measure: {kind.value}", f"# class: {cls}", f"# dof_mode: {mode.value}"]
    if any(math.isnan(c.score) for c in ranked):
        lines.append(_UNDEFINED_NOTE)
    margin = selection_margin(kind, args.alpha)
    if kind is MeasureKind.P_VALUE:
        extra, value = ["log_p"], lambda c: [_fmt(_log_p(c.score, c.key))]
    elif kind in (MeasureKind.SI, MeasureKind.SI_FISHER):
        extra, value = ["notable"], lambda c: [_fmt(c.key > margin)]
    else:
        extra, value = [], lambda c: []
    lines.append("\t".join(["rank", "id", "score", *extra]))
    lines += ["\t".join([str(pos), c.id, _fmt(c.score), *value(c)])
              for pos, c in enumerate(ranked, start=1)]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_ess(args) -> int:
    if args.curve is None:
        for flag, value in (("--curve-points", args.curve_points), ("--out", args.out)):
            if value is not None:
                args.usage_error(f"argument {flag}: requires --curve")
    table = read_count_table(args.input)
    prior = None
    if args.prior != "uniform":
        weights = read_count_table(args.prior).counts.astype(float)
        prior = make_prob_table(weights / weights.sum())
    mode = DofMode(args.dof)
    curve = ""
    if args.curve is not None:
        # both sides of the constraint on an even grid over [0, NPRIME_MAX], built before
        # the solve, so a table with no root still gets its curve written to --out
        grid = np.linspace(0.0, args.curve, args.curve_points or 101)
        rhs = _fmt(constraint_rhs(table, mode))
        curve = "n_prime\tlhs\trhs\n" + "".join(
            f"{g:g}\t{_fmt(v)}\t{rhs}\n" for g, v in zip(grid, constraint_lhs(table, grid, prior)))
        if args.out:  # written before anything is printed, so a failed write prints nothing
            Path(args.out).write_text(curve, encoding="utf-8")
            curve = f"# curve written to {args.out}\n"
    sys.stdout.write(_record(solve_ess(table, prior, mode)) + curve)
    return EXIT_OK


def _list_of(convert, what: str):
    """An argparse ``type`` for a comma-separated list of ``convert`` values."""
    def parse(text: str) -> list:
        try:
            return [convert(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse


def _in_range(convert, what: str, low, high=sys.float_info.max):
    """An argparse ``type`` for one ``convert`` value in [low, high], so never nan or inf."""
    def parse(text: str):
        try:
            if low <= (value := convert(text)) <= high:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


def _cmd_experiment(args) -> int:
    flag, value = ("--z-grid", args.z_grid) if args.name == "fig3" else ("--z", args.z)
    if value is not None:
        args.usage_error(f"argument {flag}: not allowed with {args.name}")
    study = dict(replicates=args.replicates, master_seed=args.seed, alpha=args.alpha,
                 mode=DofMode(args.dof))
    if args.n_values is not None:
        study["n_values"] = args.n_values
    if args.measures is not None:
        study["measure_kinds"] = args.measures
    out = Path(args.out)
    if args.name == "fig3":
        if args.z is not None:
            study["z"] = args.z
        outputs = {out: run_feature_selection_experiment(**study)}
    else:  # fig2: one curve per n, each file tagged with its n when there are several
        curves = run_discretization_experiment(z_grid=args.z_grid, **study)
        outputs = {out.with_name(f"{out.stem}_n{n}{out.suffix}") if len(curves) > 1 else out: curve
                   for n, curve in curves.items()}
    written = ""  # printed once every file is written
    for path, curve in outputs.items():
        path.write_text(format_curve(curve), encoding="utf-8")
        written += f"wrote {path}\n"
    if args.name == "fig3":  # after the loop, ``curve`` is fig3's one curve
        written += "fraction favoring 2 states at n=%g: %s\n" % (curve.x_values[-1], " ".join(
            f"{m}={fr[-1]:.3f}" for m, fr in curve.fractions.items()))
    sys.stdout.write(written)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depscore",
        description="Dependence measures, fair ranking, and equivalent-sample-size "
                    "estimation for discrete variable pairs.",
    )
    parser.add_argument("--version", action="version", version=f"depscore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the floats strictly between 0 and 1, so 1e-17 is one
    alpha = _in_range(float, "a number strictly between 0 and 1",
                      math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))
    points = _in_range(int, f"an integer from 1 to {MAX_CURVE_POINTS}", 1, MAX_CURVE_POINTS)

    def common(p, seed=False, dof_default="effective"):
        p.add_argument("--dof", choices=["nominal", "effective"], default=dof_default,
                       help=f"degrees-of-freedom mode (default: {dof_default})")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed (u64)")

    p = sub.add_parser("measure", help="full dependence report for one pair")
    p.add_argument("--input", required=True)
    p.add_argument("--pair", nargs=2, metavar=("COL_A", "COL_B"))
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    common(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("rank", help="rank feature columns against a class column")
    p.add_argument("--input", required=True)
    p.add_argument("--class-column", required=True)
    p.add_argument("--measure", default="si",
                   choices=[k.value for k in MeasureKind])
    p.add_argument("--alpha", type=alpha, default=0.05)
    p.add_argument("--out", default=None, help="write the ranking here instead of stdout")
    common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("ess", help="equivalent sample size for a count table")
    p.add_argument("--input", required=True)
    p.add_argument("--prior", default="uniform",
                   help="'uniform' or a path to a weight table (default: uniform)")
    p.add_argument("--curve", type=_in_range(float, "a finite number >= 0", 0.0), default=None,
                   metavar="NPRIME_MAX", help="also tabulate the constraint over [0, NPRIME_MAX]")
    p.add_argument("--curve-points", type=points, default=None, metavar="P",
                   help="grid points of the curve (default: 101; needs --curve)")
    p.add_argument("--out", default=None,
                   help="write the curve here instead of stdout (needs --curve)")
    common(p)
    p.set_defaults(func=_cmd_ess, usage_error=p.error)

    p = sub.add_parser("experiment", help="run a seeded study and write its curve")
    p.add_argument("name", choices=["fig2", "fig3"])
    p.add_argument("--out", required=True)
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--z", type=float, help="dependence parameter (fig3 only; default: 0.1)")
    p.add_argument("--z-grid", type=_list_of(float, "float values"), default=None,
                   help="comma-separated z values (fig2 only)")
    p.add_argument("--n-values", type=_list_of(int, "int values"), default=None,
                   help="comma-separated sample sizes")
    names = ", ".join(k.value for k in MeasureKind)
    p.add_argument("--measures", type=_list_of(lambda v: MeasureKind(v.strip()),
                                               f"measures out of {names}"), default=None,
                   help="comma-separated measure names (default: %s)"
                   % ",".join(k.value for k in DEFAULT_MEASURES))
    p.add_argument("--alpha", type=alpha, default=0.05)
    # the study decision rules are calibrated on nominal dof
    common(p, seed=True, dof_default="nominal")
    p.set_defaults(func=_cmd_experiment, usage_error=p.error)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call. Parsing keeps no
    state in the parser, so one serves every later call in the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NoRootError as exc:
        print(f"error: no-root: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
