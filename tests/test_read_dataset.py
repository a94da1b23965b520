"""``read_dataset`` against a reference reader that splits one line at a time.

The reference keeps the reading rules of the command line: UTF-8 with an
optional byte-order mark, universal newlines, blank and ``#`` lines skipped,
the delimiter sniffed from the first line, empty fields dropped, every row as
wide as the first, and labels coded per column in order of first appearance.
The generated files mix comma, tab and whitespace delimiters, repeated
delimiters and delimiters at either end of a line, comment lines (some led by
blanks, ASCII or not) and blank ones, LF, CRLF and lone CR line ends, and
labels of 1-13 UTF-8 bytes (non-ASCII and NUL among them, and labels that
differ only after their first 4 or 8 bytes or by a trailing NUL). Whitespace-
delimited files also split on NBSP, U+2028 and ``\x1c``-``\x1f``, which other
files hold as label bytes. Longer labels first appear in later rows, and the
reader takes as few as one byte at a time, so a label's bytes and a CRLF pair
straddle reads. At times a file has one or two rows of the wrong arity, a
repeated header name, both with the first sample among the wrong rows, or
bytes that are not UTF-8, and then both readers must raise the same message
(for UTF-8, the same reason and bytes: the position counts from the start of
the chunk read). Every column the reader returns must be a contiguous row,
and the pair table it tabulates from two of them must equal ``from_samples``
on the same codes. ``measure`` without ``--pair`` reads each file as a
dataset too, and must fail with the same message, or else report the pair
that a two-column file names.
"""

from __future__ import annotations

import io
import itertools
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from depscore import cli  # noqa: E402
from depscore.cli import main, read_dataset  # noqa: E402
from depscore.tables import from_samples  # noqa: E402

# characters of 1 to 4 UTF-8 bytes, NUL and '#' among them
LABEL_CHARS = "ab#0\0éß€𝄞"
# what a label may hold besides LABEL_CHARS, for each delimiter (never the delimiter)
EXTRA_CHARS = {",": "\t \x0b\xa0\u2028\x1c\x1f", "\t": ", \x85\xa0\x1d\x1e", " ": ","}
# what separates two fields, and what a line may start or end with
SEPARATORS = {",": [",", ",,"], "\t": ["\t", "\t\t"],
              " ": [" ", "  ", "\t", " \t\x0b", "\xa0", "\u2028", "\x1c", "\x1d\x1e", " \x1f"]}
EDGES = {",": ["", ","], "\t": ["", "\t"], " ": ["", " ", "\t", "\xa0", "\x1f"]}
NOISE_LINES = ["", "  ", "\t", "\xa0", "\u2028\x1c", "# a comment", "  #x,y\tz", "\t# x",
               "\xa0\u3000#,"]
LINE_ENDS = ["\n", "\r\n", "\r"]
# byte runs that are not UTF-8: a stray continuation byte, a byte no UTF-8 holds,
# a lead byte without its continuation, and an encoded surrogate
NOT_UTF8 = [b"\x80", b"\xff", b"\xe2\x82", b"\xed\xa0\x80"]


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


def reference_read(path):
    """``(names, labels, columns)``, or the message of the ValueError raised."""
    rows = reference_rows(path)
    try:
        names, first = next(rows, None), next(rows, None)
        if first is None:
            raise ValueError(f"{path}: need a header row and at least one sample row")
        if len(names) < 2:
            raise ValueError(f"{path}: need at least two columns")
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"{path}: column name {name!r} is repeated in the header")
        maps = [{} for _ in names]
        columns = [[] for _ in names]
        for row in [first, *rows]:
            for m, c, label in zip(maps, columns, row):
                c.append(m.setdefault(label, len(m)))
    except UnicodeDecodeError as exc:
        return not_utf8(exc)
    except ValueError as exc:
        return str(exc)
    return names, [list(m) for m in maps], columns


def not_utf8(exc: UnicodeDecodeError) -> tuple:
    """What a UTF-8 error says besides where the chunk it counts from starts."""
    return exc.reason, exc.object[exc.start:exc.end]


@st.composite
def dataset_files(draw):
    """``(file bytes, bytes per read, bits of the label cache, header width)``, None
    for the reader's own value."""
    delim = draw(st.sampled_from(sorted(SEPARATORS)))
    def at_most_13_bytes(s):
        return s.encode()[:13].decode("utf-8", "ignore")

    label = st.text(LABEL_CHARS + EXTRA_CHARS[delim], min_size=1, max_size=13).map(at_most_13_bytes)
    # labels that share their first bytes, or differ only by a trailing NUL
    stem = draw(label)
    related = st.builds(lambda k, nul: at_most_13_bytes(stem[:k] + "\0" * nul),
                        st.integers(1, len(stem)), st.integers(0, 1))
    width = draw(st.integers(2, 4))
    names = [f"v{j}" for j in range(width)]
    # each column's labels, shortest first; row i draws from the first i + 1 of them
    pools = [sorted(draw(st.lists(st.one_of(label, related), min_size=1, max_size=5, unique=True)),
                    key=lambda s: len(s.encode())) for _ in names]
    rows = [[pool[draw(st.integers(0, min(i, len(pool) - 1)))] for pool in pools]
            for i in range(draw(st.integers(1, 10)))]
    fault = draw(st.sampled_from([None, None, "arity", "header", "both", "utf8"]))
    if fault == "arity":  # one or two rows; the first is the one named
        ragged = [draw(st.integers(0, len(rows) - 1)) for _ in range(draw(st.integers(1, 2)))]
    else:  # under both faults the first sample, whose arity error comes before the header's
        ragged = [0] if fault == "both" else []
    for i in ragged:
        row = rows[i]
        row.append(row[0]) if draw(st.booleans()) else row.pop()
    if fault in ("header", "both"):
        j = draw(st.integers(1, width - 1))
        names[j] = names[draw(st.integers(0, j - 1))]

    def line(fields, separators, edges):
        return draw(st.sampled_from(edges)) + draw(st.sampled_from(separators)).join(fields) \
            + draw(st.sampled_from(edges))

    # the header alone sets the delimiter, so under whitespace it holds only spaces
    header_seps, header_edges = (([" "], ["", " "]) if delim == " "
                                 else (SEPARATORS[delim], EDGES[delim]))
    lines = draw(st.lists(st.sampled_from(NOISE_LINES), max_size=1))
    lines.append(line(names, header_seps, header_edges))
    for row in rows:
        lines += draw(st.lists(st.sampled_from(NOISE_LINES), max_size=2))
        lines.append(line(row, SEPARATORS[delim], EDGES[delim]))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    text = "".join(map(str.__add__, lines, ends[:-1] + [draw(st.sampled_from(["", "\n"]))]))
    data = (draw(st.sampled_from(["", "\ufeff"])) + text).encode()
    if fault == "utf8":  # anywhere, even inside a character or at the end
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return (data, draw(st.sampled_from([1, 2, 3, 5, 8, None])),
            draw(st.sampled_from([1, 2, None])), width)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("read") / "d.txt"


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=dataset_files())
def test_read_dataset_matches_a_per_line_reader(path, data):
    text, block_bytes, cache_bits, width = data
    path.write_bytes(text)
    expected = reference_read(path)
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes:
            mp.setattr(cli, "_BLOCK_BYTES", block_bytes)
        if cache_bits:  # two or four slots, so that labels share them
            mp.setattr(cli, "_CACHE_BITS", cache_bits)
        try:
            ds = read_dataset(path)
        except UnicodeDecodeError as exc:
            assert not_utf8(exc) == expected
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert (ds.names, ds.labels, [c.tolist() for c in ds.columns]) == expected
            assert all(c.flags.c_contiguous for c in ds.columns)
            # ordered pairs, a column with itself too; a one-label column has 2 states
            for a, b in itertools.product(range(width), repeat=2):
                t = ds.pair_table(ds.names[a], ds.names[b])
                ref = from_samples(np.column_stack((ds.columns[a], ds.columns[b])),
                                   max(len(ds.labels[a]), 2), max(len(ds.labels[b]), 2))
                assert t.counts.dtype == ref.counts.dtype and not t.counts.flags.writeable
                assert t.counts.tolist() == ref.counts.tolist()


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=dataset_files())
def test_measure_reads_a_dataset_as_read_dataset_does(path, data):
    text, _, _, width = data
    path.write_bytes(text)
    try:
        ds = read_dataset(path)
    except ValueError as exc:
        assert run(["measure", "--input", str(path)]) == (1, "", f"error: {exc}\n")
        return
    code, out, err = run(["measure", "--input", str(path)])
    if width == 2:  # the file names its pair
        assert (code, out, err) == run(["measure", "--input", str(path), "--pair", *ds.names])
        assert code == 0
    else:
        assert (code, out) == (1, "")
        assert err == "error: --pair NAME NAME required for datasets with more than two columns\n"
