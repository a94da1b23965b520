"""``read_count_table`` and ``measure`` against a reference that reads one line at a time.

The reference keeps the reading rules of the command line for count tables:
UTF-8 with an optional byte-order mark, blank and ``#`` lines skipped, the
delimiter sniffed from the first line, empty fields dropped, every row as
wide as the first, and each field read with ``int()``. The generated files
mix comma, tab and whitespace delimiters, repeated delimiters and delimiters
at either end of a line, comment and blank lines, LF, CRLF and lone CR line
ends, fields that ``int()`` reads but that are not plain digits, fields of 18
to 20 digits (``2**63 - 1`` and ``2**63`` among them), and at times ragged
rows or non-integer fields (often in the last row), tables that
``from_counts`` rejects, or no data line at all. Some tables have enough rows
to span several chunks. The reader takes as few as one character at a time
and parses chunks as short as one character with numpy, so that chunks straddle the
faults and a file takes the numpy path, the ``str`` path or both. Both
readers must give the reference's counts or raise its message.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from depscore import _read, cli  # noqa: E402
from depscore.cli import main, read_count_table  # noqa: E402
from depscore.measures import report  # noqa: E402
from depscore.tables import from_counts  # noqa: E402

# what int() reads besides plain digits: a sign, leading zeros, an underscore and
# non-ASCII digits (Arabic-Indic three, fullwidth seven)
ODD_INTEGERS = ["+3", "-1", "007", "1_0", "\u0663", "\uff17"]
# fields of 18, 19 and 20 digits: numpy parses up to 18, int() the rest
LONG_INTEGERS = ["9" * 18, "0" * 18, "0" * 18 + "7", "9" * 19, str(2**63 - 1), str(2**63), "1" * 20]
NOT_INTEGERS = ["1.5", "x", "2e3", "0x1", "--1"]
# ", " leaves a blank in a comma-delimited field, which int() ignores
SEPARATORS = {",": [",", ",,", ", "], "\t": ["\t", "\t\t"], " ": [" ", "  ", "\t", " \t\x0b"]}
EDGES = {",": ["", ","], "\t": ["", "\t"], " ": ["", " ", "\t"]}
NOISE_LINES = ["", "  ", "\t", "# a comment", "  #1,2\t3"]
LINE_ENDS = ["\n", "\r\n", "\r"]


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
    """``(file bytes, characters per read, shortest chunk parsed with numpy)``, None for the
    reader's own value."""
    delim = draw(st.sampled_from(sorted(SEPARATORS)))
    width = draw(st.integers(1, 4))
    # a few rows, or enough to span several chunks; up to two fields of 1 to 18 digits
    # or that are not plain
    height = draw(st.integers(0, 4) | st.integers(20, 40))
    rows = [[str(draw(st.integers(0, 40))) for _ in range(width)] for _ in range(height)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, width - 1))] = draw(
            st.sampled_from(ODD_INTEGERS + LONG_INTEGERS) | st.integers(0, 10**18 - 1).map(str))
    fault = draw(st.sampled_from([None, None, "arity", "non-integer"]))
    if fault and rows:  # any row, or the last
        row = rows[draw(st.integers(0, len(rows) - 1) | st.just(len(rows) - 1))]
        if fault == "arity":
            row.append(row[0]) if draw(st.booleans()) else row.pop()
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(NOT_INTEGERS))

    def line(fields, separators, edges):
        return draw(st.sampled_from(edges)) + draw(st.sampled_from(separators)).join(fields) \
            + draw(st.sampled_from(edges))

    # comment lines are not plain: half the files have blank lines only
    noise = st.sampled_from(draw(st.sampled_from([NOISE_LINES, [""]])))
    lines = draw(st.lists(noise, max_size=2))
    for i, row in enumerate(rows):
        # the first line alone sets the delimiter, so under whitespace it holds only spaces
        first_spaces = i == 0 and delim == " "
        lines.append(line(row, [" "] if first_spaces else SEPARATORS[delim],
                          ["", " "] if first_spaces else EDGES[delim]))
        lines += draw(st.lists(noise, max_size=2))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    text = "".join(map(str.__add__, lines, ends[:-1] + [draw(st.sampled_from(["", "\n"]))]))
    return ((draw(st.sampled_from(["", "\ufeff"])) + text).encode(),
            draw(st.sampled_from([1, 2, 3, 5, 8, 64, None])), draw(st.sampled_from([1, 16, None])))


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


def read(path):
    """``read_count_table``'s counts as lists, or the message of its ValueError."""
    try:
        counts = read_count_table(path).counts
    except ValueError as exc:
        return str(exc)
    assert counts.dtype == np.int64 and not counts.flags.writeable
    return counts.tolist()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=count_files())
def test_count_table_readers_match_a_per_line_reader(path, data):
    text, block_bytes, numpy_bytes = data
    path.write_bytes(text)
    expected = reference_counts(path)
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes:
            mp.setattr(_read, "_BLOCK_BYTES", block_bytes)
        # every chunk split as str, then chunks from the drawn length up parsed with numpy
        for shortest in (math.inf, numpy_bytes or _read._NUMPY_BYTES):
            mp.setattr(_read, "_NUMPY_BYTES", shortest)
            assert read(path) == expected
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


def test_a_wide_table_is_parsed_with_numpy_unless_a_chunk_is_not_plain(tmp_path, monkeypatch):
    # a seeded 201 x 201 table, and a copy whose last line holds "+7" for "7": int() reads
    # it, so the copy's last chunk is split as str and the others are parsed with numpy
    counts = np.random.default_rng(25).integers(0, 1000, (201, 201))
    counts[-1, 0] = 7
    lines = ["\t".join(map(str, row)) for row in counts.tolist()]
    plain, signed = tmp_path / "plain.txt", tmp_path / "signed.txt"
    plain.write_text("\n".join(lines) + "\n")
    signed.write_text("\n".join(lines[:-1] + ["+" + lines[-1]]) + "\n")
    plain_counts, parsed = _read._plain_counts, []

    def spy(chunk, delim, width):
        block = plain_counts(chunk, delim, width)
        parsed.append(block is not None)
        return block

    monkeypatch.setattr(_read, "_plain_counts", spy)
    for f in (plain, signed):
        assert reference_counts(f) == counts.tolist()
        parsed.clear()
        assert read(f) == counts.tolist()
        assert len(parsed) > 1 and all(parsed[:-1]) and parsed[-1] == (f is plain)
