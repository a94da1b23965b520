"""``read_count_table`` and ``measure`` against a reference that reads one line at a time.

The reference keeps the reading rules of the command line for count tables:
UTF-8 with an optional byte-order mark, blank and ``#`` lines skipped, the
delimiter sniffed from the first line, empty fields dropped, every row as
wide as the first, and each field read with ``int()``. The generated files
mix comma, tab and whitespace delimiters, repeated delimiters and delimiters
at either end of a line, comment and blank lines, CRLF line endings, fields
that ``int()`` reads but that are not plain digits, and at times ragged rows,
non-integer fields, tables that ``from_counts`` rejects, or no data line at
all. Both readers must give the reference's counts or raise its message.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from depscore import cli  # noqa: E402
from depscore.cli import main, read_count_table  # noqa: E402
from depscore.measures import report  # noqa: E402
from depscore.tables import from_counts  # noqa: E402

# what int() reads besides plain digits: a sign, leading zeros, an underscore and
# non-ASCII digits (Arabic-Indic three, fullwidth seven)
ODD_INTEGERS = ["+3", "-1", "007", "1_0", "\u0663", "\uff17"]
NOT_INTEGERS = ["1.5", "x", "2e3", "0x1", "--1"]
# ", " leaves a blank in a comma-delimited field, which int() ignores
SEPARATORS = {",": [",", ",,", ", "], "\t": ["\t", "\t\t"], " ": [" ", "  ", "\t", " \t\x0b"]}
EDGES = {",": ["", ","], "\t": ["", "\t"], " ": ["", " ", "\t"]}
NOISE_LINES = ["", "  ", "\t", "# a comment", "  #1,2\t3"]


def reference_rows(path):
    """The nonempty fields of each data line, split as ``str`` one line at a time."""
    with open(path, encoding="utf-8-sig") as fh:
        delim = width = None
        for line in fh:
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if width is None:
                delim = "," if "," in line else "\t" if "\t" in line else None
            fields = [f for f in line.rstrip("\n").split(delim) if f]
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ValueError(f"{path}: row arity {len(fields)} != first row arity {width}")
            yield fields


def reference_counts(path):
    """The table's counts as lists, or the message of the ValueError raised."""
    try:
        counts = []
        for row in reference_rows(path):
            try:
                counts.append([int(f) for f in row])
            except ValueError:
                raise ValueError(f"{path}: non-integer entry in count table") from None
        if not counts:
            raise ValueError(f"{path}: no data rows")
        return from_counts(counts).counts.tolist()
    except ValueError as exc:
        return str(exc)


@st.composite
def count_files(draw):
    delim = draw(st.sampled_from(sorted(SEPARATORS)))
    width = draw(st.integers(1, 4))
    cell = st.integers(0, 40).map(str) | st.sampled_from(ODD_INTEGERS)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=4))
    fault = draw(st.sampled_from([None, None, "arity", "non-integer"]))
    if fault and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "arity":
            row.append(row[0]) if draw(st.booleans()) else row.pop()
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(NOT_INTEGERS))

    def line(fields, separators, edges):
        return draw(st.sampled_from(edges)) + draw(st.sampled_from(separators)).join(fields) \
            + draw(st.sampled_from(edges))

    lines = draw(st.lists(st.sampled_from(NOISE_LINES), max_size=2))
    for i, row in enumerate(rows):
        # the first line alone sets the delimiter, so under whitespace it holds only spaces
        first_spaces = i == 0 and delim == " "
        lines.append(line(row, [" "] if first_spaces else SEPARATORS[delim],
                          ["", " "] if first_spaces else EDGES[delim]))
        lines += draw(st.lists(st.sampled_from(NOISE_LINES), max_size=2))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode()


def integers(fields) -> bool:
    try:
        [int(f) for f in fields]
    except ValueError:
        return False
    return True


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("counts") / "t.txt"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=count_files())
def test_count_table_readers_match_a_per_line_reader(path, text):
    path.write_bytes(text)
    expected = reference_counts(path)
    try:
        counts = read_count_table(path).counts.tolist()
    except ValueError as exc:
        counts = str(exc)
    assert counts == expected
    first = next(reference_rows(path), [])
    if not integers(first):
        return  # measure reads a dataset: tests/test_read_dataset.py runs that path
    code, out, err = run(["measure", "--input", str(path)])
    if isinstance(expected, str):
        if expected.endswith("no data rows"):
            expected = f"{path}: empty input"
        assert (code, out, err) == (1, "", f"error: {expected}\n")
    else:
        rep = report(from_counts(expected))
        undefined = any(math.isnan(v) for v in astuple(rep))
        assert (code, err) == (0, "")
        assert out == (cli._UNDEFINED_NOTE + "\n") * undefined + cli._record(rep)
