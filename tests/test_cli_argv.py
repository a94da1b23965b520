"""Generated command lines: every argv ends in a documented exit code.

Each command gets flags drawn from valid values and from bad ones (nan, inf,
negative numbers, integers of 2**63 and more, one of 400 digits, non-numbers)
and input files that are well formed, ragged, non-integer, all zero, out of
int64 range, past float's range, not UTF-8, led by a UTF-8 byte-order mark, or with a column name given twice.
Each study also gets the other study's flag at times (``--z`` for fig2,
``--z-grid`` for fig3).
Whatever the draw, ``main`` returns 0, 1 or 3 or exits 2 through argparse,
lets no other exception escape, and prints nothing to stdout unless the exit
code is 0. Sample sizes and replicates stay small, so every run is
quick: at most 2 replicates, and fig3 n of at most 64 unless it is above
``FIG3_MAX_N`` (and so rejected before any sampling).
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from depscore import MeasureKind  # noqa: E402
from depscore.cli import MAX_CURVE_POINTS, main  # noqa: E402
from depscore.experiments import FIG3_MAX_N  # noqa: E402

BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "-0.5", str(2**63), str(2**64 + 1), str(10**400),
               "1e400", "x", ""]
FRACTIONS = ["0.05", "0.5", "1e-17"]
FILES = {
    "counts": b"200 100\n100 200\n",
    "wide": b"30,12,5\n10,28,9\n",
    "independent": b"2 2\n2 2\n",
    "diagonal": b"5 0\n0 7\n",
    "dataset": b"y,a,b\n" + b"".join(f"{y},{a},{b}\n".encode() for y, a, b in zip(
        "010101100011", "xxyyxyxyxxyy", "ppqqqppqpqqp")),
    "constant": b"y,a,b\n0,k,p\n1,k,q\n0,k,q\n",
    "ragged": b"1 2 3\n4 5\n",
    "non_integer": b"1.5 2\n3 4\n",
    "all_zero": b"0 0\n0 0\n",
    "negative": b"-1 2\n3 4\n",
    "huge": f"{2**63} 1\n1 1\n".encode(),
    "total_2_63": f"{2**62} {2**62}\n1 1\n".encode(),
    "digits_400": f"{10**400} 1\n1 1\n".encode(),
    "empty": b"",
    "comments_only": b"# nothing\n\n",
    "latin1": b"y,a\n\xe9t\xe9,1\nhiver,2\n",
    "bom_counts": b"\xef\xbb\xbf200 100\n100 200\n",
    "bom_dataset": b"\xef\xbb\xbfy,a\n0,x\n1,y\n1,x\n",
    "repeated_header": b"y,a,a\n0,x,p\n1,y,q\n1,x,q\n",
}
ARGV_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    for name, data in FILES.items():
        (root / name).write_bytes(data)
    return {"root": str(root), **{name: str(root / name) for name in FILES},
            "missing": str(root / "no_such_file")}


def number(*valid: str):
    """A flag value: one of ``valid`` about two times in three, else a bad number."""
    return st.sampled_from(valid) | st.sampled_from(valid) | st.sampled_from(BAD_NUMBERS)


def number_list(*valid: str):
    return st.lists(number(*valid), min_size=1, max_size=2).map(",".join)


def optional(draw, flag: str, values) -> list[str]:
    return [flag, draw(values)] if draw(st.booleans()) else []


def argv_for(command: str, draw, paths) -> list[str]:
    good = ["dataset"] if command in ("measure", "rank") else ["counts", "wide"]
    inputs = st.sampled_from(good) | st.sampled_from([*FILES, "missing", "root"])
    source = ["--input", paths[draw(inputs)]]
    outs = st.sampled_from(["out.tsv", "missing/out.tsv", ""])
    out = os.path.join(paths["root"], draw(outs))
    dof = optional(draw, "--dof", st.sampled_from(["nominal", "effective"]))
    measures = st.sampled_from([k.value for k in MeasureKind] + ["nope"])
    if command == "measure":
        return ["measure", *source, *dof, *optional(draw, "--out", st.just(out)),
                *(["--pair", "a", "y"] if draw(st.booleans()) else [])]
    if command == "rank":
        return ["rank", *source, "--class-column", draw(st.sampled_from(["y", "a", "nope"])),
                *dof, *optional(draw, "--measure", measures),
                *optional(draw, "--alpha", number(*FRACTIONS)),
                *optional(draw, "--out", st.just(out))]
    prior = optional(draw, "--prior", st.sampled_from(["uniform", paths["wide"]]) | inputs.map(
        lambda name: paths[name]))
    if command == "ess":
        curve = ["--curve", draw(number("0", "40", "1e300", "1.7976931348623157e308"))] \
            if draw(st.booleans()) else []
        return ["ess", *source, *prior, *dof, *curve,
                *optional(draw, "--curve-points", number("1", "21", str(MAX_CURVE_POINTS))),
                *optional(draw, "--out", st.just(out))]
    study = ["experiment", command, "--out", out, *dof,
             # never a bad number here: a huge count of replicates is valid and runs for ever
             "--replicates", draw(st.sampled_from(["1", "2"]) | st.sampled_from(["1", "2"])
                                  | st.sampled_from(["0", "-1", "nan"])),
             *optional(draw, "--seed", number("0", "7", str(2**64 + 1))),
             *optional(draw, "--alpha", number(*FRACTIONS)),
             *optional(draw, "--measures", st.lists(measures, min_size=1, max_size=3)
                       .map(",".join))]
    if command == "fig2":
        # sample sizes on both sides of the int64 limit; multinomial draws of any n are quick
        return [*study, "--n-values", draw(number_list("1", "25", str(2**63 - 1), str(2**63))),
                *optional(draw, "--z-grid", number_list("0", "0.05", "0.125")),
                *optional(draw, "--z", number("0.1"))]  # fig3's flag: a usage error here
    return [*study, "--n-values", draw(number_list("32", "64", str(FIG3_MAX_N + 1))),
            *optional(draw, "--z", number("0", "0.1", "0.25", "0.3")),
            *optional(draw, "--z-grid", number_list("0.05"))]  # fig2's flag: a usage error here


@pytest.mark.parametrize("command", ["measure", "rank", "ess", "fig2", "fig3"])
@ARGV_SETTINGS
@given(data=st.data())
def test_any_argv_ends_in_a_documented_exit_code(paths, command, data):
    argv = argv_for(command, data.draw, paths)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert code == 0 or out.getvalue() == "", (argv, code, out.getvalue())
    assert "Traceback" not in err.getvalue(), argv
