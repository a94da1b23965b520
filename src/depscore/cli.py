"""Command-line surface: ingestion, measure reports, ranking, equivalent
sample size, and experiment execution.

Two input formats are understood, under one set of line rules. A *count
table file* is a delimiter-separated integer matrix; `--prior FILE` is read
as one too, so prior weights must be integers. A *dataset file* has a header
row of variable names followed by one sample per row of arbitrary
categorical labels; labels map to dense indices in first-appearance order
per column, and the mapping is echoed in output comments so sparse-label
behavior is reproducible. `measure` reads its input as a dataset when
`--pair` is given or a field of the first data row is not an integer, and
as a count table otherwise. A file is read in chunks of whole lines, about
`_BLOCK_BYTES` bytes each, and each line is split once. The first data line
of a file (a header, or the row `measure` sniffs) is split as `str`. A
dataset's samples, the first one included, are split only by
`_block_fields`, a chunk at a time from their bytes: numpy finds the fields
and lines, and only a line that may be blank or a comment (one led by
whitespace, or with the wrong number of fields) is read as `str`. The rows
of a count table are split the same way, and their digits read with numpy
a digit position at a time, in a chunk of at least `_NUMPY_BYTES` bytes
that holds only ASCII digits, line ends and what splits its fields, and
whose every row has the first row's width in fields of at most 18 digits;
every other chunk is split as `str` and its fields read with `int()`, which
also raises the errors. Labels are coded without one Python object per
field, through an exact cache of label keys in front of sorted ones; a label
longer than `_LONG_LABEL` bytes is keyed by its bytes in a dict. Each
dataset column is one contiguous int32 row of codes, which pair tables
count unchecked: the codes are in range by construction, so only
`tables.from_samples`, the entry point for state indices from outside,
checks them. The rules, the same for both formats:

- files are read as UTF-8, and a byte-order mark at the start is dropped;
  bytes that are not UTF-8 are an error that names the file offset of the
  first bad one, the mark counted;
- a line ends at `\\n`, `\\r\\n` or a lone `\\r`;
- blank lines, and lines whose first non-blank character is `#`, are
  skipped, so a dataset row whose first label starts with `#` is dropped;
- fields are split on commas if the first row contains one, else on tabs if
  present, else on runs of whitespace (what `str.split()` splits on, non-ASCII
  spaces among it), and empty fields are skipped;
- every row must have as many fields as the first.

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
import itertools
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .ess import NoRootError, constraint_lhs, constraint_rhs, solve_ess
from .experiments import (
    DEFAULT_MEASURES,
    format_curve,
    run_discretization_experiment,
    run_feature_selection_experiment,
)
from .measures import MeasureKind, _log_p, report
from .ranking import rank, score_candidates, selection_margin
from .tables import CountTable, DofMode, _tabulate, from_counts, make_prob_table

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
# ingestion
# ---------------------------------------------------------------------------

# Bytes of a file read at a time: enough that numpy's cost per call is spread thin,
# few enough that a chunk's arrays stay near a megabyte.
_BLOCK_BYTES = 1 << 16
_BOM = b"\xef\xbb\xbf"
# the first 0..4 bytes of a little-endian 4-byte word
_BYTE_MASKS = np.array([0, 0xFF, 0xFFFF, 0xFF_FFFF, 0xFFFF_FFFF], dtype=np.uint64)
# str.split()'s whitespace beyond ASCII, which splits the fields of a whitespace-delimited file
_WIDE_SPACES = ("\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009"
                "\u200a\u2028\u2029\u202f\u205f\u3000")
# a whitespace-delimited file's ASCII whitespace within a line, as spaces
_SPACES = bytes.maketrans(b"\t\x0b\x0c\x1c\x1d\x1e\x1f", b" " * 7)
# The first bytes of a line that may be blank or a comment after its blanks: ASCII
# whitespace and the lead bytes of the wide spaces. A dataset line is read as str only
# when it starts with one or has the wrong number of fields.
_MAY_SKIP = np.zeros(256, dtype=bool)
_MAY_SKIP[[*(i for i in range(128) if chr(i).isspace()),
           *(c.encode()[0] for c in _WIDE_SPACES)]] = True
# An exact cache of round-0 label keys in front of `_label_ids`' sorted keys: a
# power-of-two table of (key, id) slots, a key's slot the top bits of key * _HASH.
_CACHE_BITS = 12
_HASH = np.uint64(0x9E37_79B9_7F4A_7C15)
# the longest label, in bytes, coded through `_label_ids`' sorted keys (longer ones, a
# round of numpy calls per 4 bytes there, are keyed by their bytes in a dict)
_LONG_LABEL = 32
_NO_SAMPLE = "need a header row and at least one sample row"  # a dataset file's first check
# A count table's chunk of at least this many bytes is parsed with numpy when it is plain:
# it holds only ASCII digits, line ends and what splits its fields. Below it, str costs less.
_NUMPY_BYTES = 1024
_PLAIN = {",": b"0123456789\n\r,", "\t": b"0123456789\n\r\t",
          " ": b"0123456789\n\r \t\x0b\x0c\x1c\x1d\x1e\x1f"}


def _delimiter(first_line: str) -> str:
    """The delimiter a file's first data line sets: comma, else tab, else space."""
    return "," if "," in first_line else "\t" if "\t" in first_line else " "


def _is_data(line: str) -> bool:
    """Whether ``line`` is a data line: neither blank nor led by ``#`` after its blanks."""
    return line.lstrip()[:1] not in ("", "#")


def _split(line: str, delim: str) -> list:
    """The nonempty fields of ``line``; a space delimiter splits on runs of any whitespace."""
    return line.split() if delim == " " else [f for f in line.split(delim) if f]


class _Chunks:
    """The bytes of the binary file ``fh``, less a leading byte-order mark, as chunks of
    whole lines. Each read takes ``size`` more bytes; what follows the last line end
    (``\\n`` or ``\\r``) waits in ``rest``, ahead of the next read. ``size`` starts at an
    eighth of ``_BLOCK_BYTES``, so that a dataset's first chunk, whose labels are all
    new to the label cache, stays small. A line longer than that is read in reads that
    double, so that it is copied a bounded number of times.

    ``start`` is the file offset of the last chunk, and ``at`` that of ``rest``. In a
    ``with`` block, a UnicodeDecodeError, which comes from decoding the last chunk
    whole, becomes a ValueError that names the file offset of the first bad byte."""

    def __init__(self, fh):
        head = fh.read(3)
        self.fh, self.rest = fh, head.removeprefix(_BOM)
        self.start = self.at = len(head) - len(self.rest)
        self.size = max(1, _BLOCK_BYTES // 8)

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, UnicodeDecodeError):
            raise ValueError(f"{self.fh.name}: not UTF-8 at byte {self.start + exc.start} of "
                             f"the file ({exc.reason})") from None

    def __iter__(self):
        return self

    def __next__(self) -> bytes:
        size = self.size
        while block := self.fh.read(size):
            data = self.rest + block
            cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
            if cut:
                return self._take(data, cut)
            self.rest, size = data, len(data)
        if not self.rest:
            raise StopIteration
        return self._take(self.rest, len(self.rest))

    def _take(self, data: bytes, cut: int) -> bytes:
        self.start, self.at, self.rest = self.at, self.at + cut, data[cut:]
        return data[:cut]

    def unread(self, tail: bytes) -> None:
        """Put ``tail``, the end of the last chunk, back ahead of the next read."""
        self.rest, self.at = tail + self.rest, self.at - len(tail)


def _arity_error(path, arity: int, width: int) -> ValueError:
    return ValueError(f"{path}: row arity {arity} != first row arity {width}")


def _head(chunks: _Chunks, path, empty: str):
    """``(fields, delimiter)``: the first data line of ``chunks`` split on the delimiter
    it sets, the rest of its chunk put back; none at all is the error ``empty``."""
    for chunk in chunks:
        text, at = chunk.decode(), 0
        for line in text.replace("\r", "\n").split("\n"):  # "\r\n" ends a line and a blank one
            at += len(line) + 1
            if _is_data(line):
                chunks.unread(chunk[len(text[:at].encode()):])
                delim = _delimiter(line)
                return _split(line, delim), delim
    raise ValueError(f"{path}: {empty}")


def _int_rows(rows, width: int, path) -> list:
    """The split ``rows``, each ``width`` fields long, as lists of ``int()`` of each field."""
    out = []
    for fields in rows:
        if len(fields) != width:
            raise _arity_error(path, len(fields), width)
        try:
            out.append([int(f) for f in fields])
        except ValueError:
            raise ValueError(f"{path}: non-integer entry in count table") from None
    return out


def _plain_counts(chunk: bytes, delim: str, width: int):
    """The rows of ``chunk`` as an int64 array, parsed with numpy, or None for a chunk
    that is not plain or that has a row that is not ``width`` fields of at most 18
    digits; :func:`_int_rows` reads those, and raises their errors in order."""
    if chunk.translate(None, _PLAIN[delim]):
        return None
    text, starts, lengths, arity = _block_fields(chunk, ord(delim), width)
    if (arity != width).any() or lengths.max(initial=0) > 18:
        return None
    digits = np.frombuffer(text, dtype=np.uint8) - np.uint8(48)
    values = digits[starts].astype(np.int64)  # every field's first digit
    for k in range(1, lengths.max(initial=0)):  # then its k-th, where it has one
        values = np.where(lengths > k, values * 10 + digits.take(starts + k, mode="clip"),
                          values)
    return values.reshape(arity.size, width)


def _count_table(head, delim, chunks, path) -> CountTable:
    """The count table of row ``head`` and of the data lines of ``chunks``: a chunk of
    ``_NUMPY_BYTES`` or more is parsed with numpy where it is plain, and every other
    one is split as ``str``, a line at a time."""
    width, rows, parts = len(head), _int_rows([head], len(head), path), []
    chunks.size = _BLOCK_BYTES
    for chunk in chunks:
        if len(chunk) >= _NUMPY_BYTES and (block := _plain_counts(chunk, delim, width)) is not None:
            parts += [rows, block]
            rows = []
        else:
            lines = filter(_is_data, chunk.decode().replace("\r", "\n").split("\n"))
            rows += _int_rows((_split(line, delim) for line in lines), width, path)
    if not parts:
        return from_counts(rows)
    parts.append(rows)
    try:
        counts = np.concatenate([np.asarray(p, dtype=np.int64).reshape(len(p), width)
                                 for p in parts])
    except OverflowError:  # a count past int64: from_counts reads its Python int
        counts = [row for p in parts for row in (p if isinstance(p, list) else p.tolist())]
    return from_counts(counts)


def read_count_table(path) -> CountTable:
    """Parse a delimiter-separated integer matrix into a CountTable."""
    with open(path, "rb") as fh, _Chunks(fh) as chunks:
        return _count_table(*_head(chunks, path, "no data rows"), chunks, path)


class Dataset:
    """Categorical dataset: column names, index-coded columns, label maps.

    ``columns[j]`` holds column ``j``'s codes, dense from 0 in order of first
    appearance, as one contiguous int32 row of a ``(width, n)`` matrix, and
    ``labels[j][k]`` is the label of code ``k``. :meth:`pair_table` counts two
    such rows unchecked, since their codes are in range by construction;
    :func:`tables.from_samples` is the entry point that checks state indices
    from outside.
    """

    def __init__(self, names: list[str], columns: list[np.ndarray],
                 labels: list[list[str]]):
        self.names = names
        self.columns = columns
        self.labels = labels
        self._index = {nm: i for i, nm in enumerate(names)}

    def column(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            shown = self.names[:5] + ["..."] * (len(self.names) > 5)
            raise ValueError(f"unknown column {name!r}; have {len(self.names)} columns: "
                             + ", ".join(shown)) from None

    def pair_table(self, name_a: str, name_b: str) -> CountTable:
        """The pair's count table; a column with one label is a 2-state variable
        whose second state is empty."""
        ia, ib = self.column(name_a), self.column(name_b)
        return _tabulate(self.columns[ia], self.columns[ib],
                         max(len(self.labels[ia]), 2), max(len(self.labels[ib]), 2))


def _label_ids(text: bytes, starts: np.ndarray, lengths: np.ndarray, rounds: list,
               labels: list, cache: tuple) -> np.ndarray:
    """Int32 ids of the labels ``text[s:s + n]``: equal exactly for equal labels,
    over every call that shares ``rounds``, ``labels`` and ``cache``.

    A label of up to ``_LONG_LABEL`` bytes is read 4 bytes at a time, so
    ``text`` must hold 3 bytes past its last label. Round 0's key is the
    label's byte length and its first 4 bytes; round r's key is its id from
    round r - 1 and its next 4 bytes.
    ``rounds[r]`` holds round r's known keys, sorted, with their ids; a key not
    yet known gets the next id. ``labels[i]`` is the label that id ``i`` ends,
    or None for an id that only starts longer labels. ``cache`` holds two
    arrays, slot keys (0 for none, which no key is) and slot ids: a round-0 key
    found in its slot takes the slot's id, and only the others are looked up
    in ``rounds[0]``, which then puts them in their slots. Its third part is
    the dict that gives a longer label, which would take a round per 4 of its
    bytes, its id, keyed by its bytes.
    """
    if lengths.max(initial=0) > _LONG_LABEL:
        long = lengths > _LONG_LABEL
        keys = [text[s:s + n] for s, n in zip(starts[long].tolist(), lengths[long].tolist())]
        long_ids = cache[2]
        for key in keys:
            if key not in long_ids:
                long_ids[key] = len(labels)
                labels.append(key.decode())
        ids = np.empty(lengths.size, dtype=np.int32)
        ids[long] = [long_ids[key] for key in keys]
        short = ~long
        ids[short] = _label_ids(text, starts[short], lengths[short], rounds, labels, cache)
        return ids
    buf = np.frombuffer(text, dtype=np.uint8)
    words = np.ndarray(buf.size - 3, dtype="<u4", buffer=buf, strides=(1,))
    slot_keys, slot_ids, _ = cache
    at, rest, prev = starts, lengths, lengths.astype(np.uint64)
    for r in itertools.count():
        keys = (prev << 32) | (words.take(at) & _BYTE_MASKS.take(np.minimum(rest, 4)))
        if r == 0:  # the cache answers the keys it holds; the rest are looked up
            slots = ((keys * _HASH) >> np.uint64(64 - _CACHE_BITS)).view(np.intp)
            ids = slot_ids.take(slots)
            todo = np.flatnonzero(slot_keys.take(slots) != keys)
            keys, at, rest = keys[todo], at[todo], rest[todo]
        if r == len(rounds):  # an end marker above every key (UTF-8 has no 0xFF byte)
            rounds.append((np.array([2**64 - 1], dtype=np.uint64), np.zeros(1, np.int32)))
        known, known_ids = rounds[r]
        pos = np.searchsorted(known, keys)
        if (miss := known[pos] != keys).any():
            new, first = np.unique(keys[miss], return_index=True)
            first = np.flatnonzero(miss)[first]
            labels.extend(text[s - 4 * r:s + n].decode() if n <= 4 else None
                          for s, n in zip(at[first].tolist(), rest[first].tolist()))
            where = np.searchsorted(known, new)
            rounds[r] = known, known_ids = (np.insert(known, where, new), np.insert(
                known_ids, where, np.arange(len(labels) - new.size, len(labels))))
            pos = np.searchsorted(known, keys)
        ids[todo] = known_ids[pos]
        if r == 0:  # of the keys that share a slot, the one left in it sets its id
            slots = slots[todo]
            slot_keys[slots] = keys
            left = slot_keys.take(slots) == keys
            slot_ids[slots[left]] = ids[todo[left]]
        todo = np.flatnonzero(lengths > 4 * (r + 1))
        if not todo.size:
            return ids
        at, rest = starts[todo] + 4 * (r + 1), lengths[todo] - 4 * (r + 1)
        prev = ids[todo].astype(np.uint64)


def _block_fields(chunk: bytes, delim: int, width: int) -> tuple:
    """``(text, starts, lengths, arity)``: the nonempty fields ``text[s:s + n]`` of the
    data lines of ``chunk``, and each line's count of them. A field ends at the byte
    ``delim`` or at a line end, and ``text`` holds 3 bytes past the last field."""
    chars = chunk.decode()  # checks the chunk is UTF-8
    if delim == 32 and not chars.isascii():  # str.split()'s wide spaces split fields
        for c in _WIDE_SPACES:
            chars = chars.replace(c, " ")
        chunk = chars.encode()
    if b"\r" in chunk:  # universal newlines
        chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if delim == 32:
        chunk = chunk.translate(_SPACES)
    text = chunk + (b"\0\0\0" if chunk.endswith(b"\n") else b"\n\0\0\0")
    buf = np.frombuffer(text, dtype=np.uint8)
    ends = np.flatnonzero((buf == delim) | (buf == 10))
    lengths = np.diff(ends, prepend=-1) - 1
    line_ends = np.flatnonzero(buf == 10)
    newlines = np.searchsorted(ends, line_ends)
    if (keep := lengths > 0).all():
        arity = np.diff(newlines, prepend=-1)
    else:  # a line's fields, less its (rare) empty ones: both counted up to its line end
        arity = np.diff(newlines + 1 - np.searchsorted(np.flatnonzero(~keep), newlines,
                                                       side="right"), prepend=0)
        ends, lengths = ends[keep], lengths[keep]
    # blank and comment lines: a line led by '#' is a comment, and each other line
    # that may be one is read as str
    firsts = np.concatenate(([0], line_ends[:-1] + 1))
    data = (first := buf.take(firsts)) != ord("#")
    maybe = np.flatnonzero(data & ((arity != width) | _MAY_SKIP.take(first)))
    for i, a, b in zip(maybe.tolist(), firsts[maybe].tolist(), line_ends[maybe].tolist()):
        data[i] = _is_data(text[a:b].decode())
    if not data.all():
        ends, lengths = (x[np.repeat(data, arity)] for x in (ends, lengths))
        arity = arity[data]
    return text, ends - lengths, lengths, arity


def _dataset(names, delim, chunks, path) -> Dataset:
    """The dataset of header ``names`` and of the samples in ``chunks``, split on ``delim``."""
    width, delim = len(names), ord(delim)
    # the samples, a chunk at a time; a label's id is the same in every chunk
    rounds: list = []
    labels: list = []
    cache = (np.zeros(1 << _CACHE_BITS, dtype=np.uint64), np.zeros(1 << _CACHE_BITS, np.int32),
             {})
    blocks = []
    for chunk in chunks:
        text, starts, lengths, arity = _block_fields(chunk, delim, width)
        if not arity.size:
            continue
        if not blocks:  # the first sample's arity comes before the header's checks
            if arity[0] != width:
                raise _arity_error(path, int(arity[0]), width)
            if width < 2:
                raise ValueError(f"{path}: need at least two columns")
            seen: set = set()
            for nm in names:
                if nm in seen:
                    raise ValueError(f"{path}: column name {nm!r} is repeated in the header")
                seen.add(nm)
        if (bad := np.flatnonzero(arity != width)).size:
            raise _arity_error(path, int(arity[bad[0]]), width)
        blocks.append(_label_ids(text, starts, lengths, rounds, labels, cache).reshape(-1, width))
        # a chunk also takes as many bytes as there are label ids, so that the sorted
        # keys grow by a share at a time and merging into them stays linear
        chunks.size = max(_BLOCK_BYTES, len(labels))
    if not blocks:
        raise ValueError(f"{path}: {_NO_SAMPLE}")
    # one contiguous row of ids per column, written a block at a time
    n = sum(len(b) for b in blocks)
    ids = np.empty((width, n), dtype=np.int32)
    np.concatenate(blocks, out=ids.T)
    del blocks
    # each column's codes replace its ids; codes and labels follow each label's first row.
    # first[i] is the first row of id i in the column at hand, and n once it is reset
    rows_at = np.arange(n, dtype=np.int32)
    first = np.full(len(labels), n, dtype=np.int32)
    code = np.empty(len(labels), dtype=np.int32)
    column_labels = []
    for col in ids:
        np.minimum.at(first, col, rows_at)
        seen_ids = col[first.take(col) == rows_at]  # in order of first appearance
        first[seen_ids] = n
        code[seen_ids] = np.arange(seen_ids.size, dtype=np.int32)
        col[:] = code.take(col)
        column_labels.append([labels[i] for i in seen_ids.tolist()])
    return Dataset(names, list(ids), column_labels)


def read_dataset(path) -> Dataset:
    """Parse a header-plus-samples categorical data file."""
    with open(path, "rb") as fh, _Chunks(fh) as chunks:
        return _dataset(*_head(chunks, path, _NO_SAMPLE), chunks, path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_measure(args) -> int:
    with open(args.input, "rb") as fh, _Chunks(fh) as chunks:
        head, delim = _head(chunks, args.input, "empty input")
        try:  # a count table, unless --pair names columns or the first row is not all integers
            [int(f) for f in head]
            dataset = bool(args.pair)
        except ValueError:
            dataset = True
        if dataset:
            ds = _dataset(head, delim, chunks, args.input)
        else:
            table = _count_table(head, delim, chunks, args.input)
    notes = []
    if dataset:
        pair = args.pair or ds.names
        if len(pair) != 2:
            raise ValueError("--pair NAME NAME required for datasets with more than two columns")
        table = ds.pair_table(*pair)
        notes = [f"# labels {nm}: " + " ".join(ds.labels[ds.column(nm)]) for nm in pair]
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


def _with_suffix(path: Path, tag: str) -> Path:
    return path.with_name(path.stem + tag + path.suffix) if path.suffix \
        else path.with_name(path.name + tag)


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
        outputs = {_with_suffix(out, f"_n{n}") if len(curves) > 1 else out: curve
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
