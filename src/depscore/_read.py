"""Reading count table files and dataset files, under one set of line rules.

A *count table file* is a delimiter-separated integer matrix; `ess --prior
FILE` is read as one too, so prior weights must be integers. A *dataset file*
has a header row of variable names followed by one sample per row of
arbitrary categorical labels; labels map to dense indices in first-appearance
order per column, and the CLI echoes the mapping in output comments so
sparse-label behavior is reproducible. :func:`read_input` opens every file;
`measure` has it read a dataset when `--pair` is given or a field of the first
data row is not an integer, and a count table otherwise. A file is read in
text mode, in chunks of whole lines, about `_BLOCK_BYTES` characters each, and
each line is split once. The first data line of a file (a header, or the row
`measure` sniffs) is split as `str`. A dataset's samples, the first one
included, are split only by `_block_fields`, a chunk at a time from their
UTF-8 bytes: numpy finds the fields and lines, and only a line that may be
blank or a comment (one led by whitespace, or with the wrong number of fields)
is read as `str`. The rows of a count table are split the same way, and their
digits read with numpy a digit position at a time, in a chunk of at least
`_NUMPY_BYTES` characters that holds only ASCII digits, line ends and what
splits its fields, and whose every row has the first row's width in fields of
at most 18 digits; every other chunk is split as `str` and its fields read
with `int()`, which also raises the errors. Labels are coded without one
Python object per field, through an exact cache of label keys in front of
sorted ones; a label longer than `_LONG_LABEL` bytes is keyed by its bytes in
a dict. Each dataset column is one contiguous int32 row of codes, which pair
tables count unchecked: the codes are in range by construction, so only
`tables.from_samples`, the entry point for state indices from outside, checks
them. The rules, the same for both formats:

- files are read as UTF-8, and a byte-order mark at the start is dropped (by
  Python's `utf-8-sig` decoder); bytes that are not UTF-8 are an error that
  names the file offset of the first bad one, the mark counted, taken from the
  read that failed, so no file is opened twice; a pipe or FIFO has no offset,
  and its error names none;
- a line ends at `\\n`, `\\r\\n` or a lone `\\r` (Python's universal newlines);
- blank lines, and lines whose first non-blank character is `#`, are
  skipped, so a dataset row whose first label starts with `#` is dropped;
- fields are split on commas if the first row contains one, else on tabs if
  present, else on runs of whitespace (what `str.split()` splits on, non-ASCII
  spaces among it), and empty fields are skipped;
- every row must have as many fields as the first;
- a bad byte is reported before the rule errors of the chunk being read, and
  decoding runs up to 8 KiB past that chunk (more after multi-byte text), so
  which of a file's two faults is reported depends on where chunks fall.
"""

from __future__ import annotations

import itertools

import numpy as np

from .tables import CountTable, _tabulate, from_counts

# Characters of a file read at a time: enough that numpy's cost per call is spread thin,
# few enough that a chunk's arrays stay near a megabyte.
_BLOCK_BYTES = 1 << 16
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
# A count table's chunk of at least this many characters is parsed with numpy when it is plain:
# it holds only ASCII digits, line ends and what splits its fields. Below it, str costs less.
_NUMPY_BYTES = 1024
_PLAIN = {",": b"0123456789\n,", "\t": b"0123456789\n\t",
          " ": b"0123456789\n \t\x0b\x0c\x1c\x1d\x1e\x1f"}


def _is_data(line: str) -> bool:
    """Whether ``line`` is a data line: neither blank nor led by ``#`` after its blanks."""
    return line.lstrip()[:1] not in ("", "#")


def _split(line: str, delim: str) -> list:
    """The nonempty fields of ``line``; a space delimiter splits on runs of any whitespace."""
    return line.split() if delim == " " else [f for f in line.split(delim) if f]


def _chunk(fh, size: int) -> str:
    """About ``size`` characters of the text file ``fh``, to a line end: a longer line whole."""
    text = fh.read(size)
    return text if text.endswith("\n") else text + fh.readline()


def _arity_error(path, arity: int, width: int) -> ValueError:
    return ValueError(f"{path}: row arity {arity} != first row arity {width}")


def _head(fh, path, empty: str):
    """``(fields, delimiter)``: the first data line of ``fh``, read a line at a time to
    leave ``fh`` just past it, split on the delimiter it sets; none is the error ``empty``."""
    for line in fh:
        if _is_data(line := line.removesuffix("\n")):
            delim = "," if "," in line else "\t" if "\t" in line else " "
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


def _count_table(head, delim, fh, path) -> CountTable:
    """The count table of row ``head`` and of the data lines left in ``fh``: a chunk of
    ``_NUMPY_BYTES`` or more is parsed with numpy where it is plain, and every other
    one is split as ``str``, a line at a time."""
    width, rows, parts = len(head), _int_rows([head], len(head), path), []
    while chunk := _chunk(fh, _BLOCK_BYTES):
        if (len(chunk) >= _NUMPY_BYTES
                and (block := _plain_counts(chunk.encode(), delim, width)) is not None):
            parts += [rows, block]
            rows = []
        else:
            lines = filter(_is_data, chunk.split("\n"))
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
    return read_input(path, "no data rows", dataset=False)


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
    data lines of ``chunk``, UTF-8 text whose lines end at ``\\n``, and each line's count
    of them. A field ends at the byte ``delim`` or at a line end, and ``text`` holds 3
    bytes past the last field."""
    if delim == 32:  # str.split()'s whitespace splits fields: the wide spaces, then ASCII's
        if not chunk.isascii():  # UTF-8 matches a character's bytes only where it starts
            for c in _WIDE_SPACES:
                chunk = chunk.replace(c.encode(), b" ")
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


def _dataset(names, delim, fh, path) -> Dataset:
    """The dataset of header ``names`` and of the samples left in ``fh``, split on ``delim``."""
    width, delim = len(names), ord(delim)
    # the samples, a chunk at a time; a label's id is the same in every chunk
    rounds, labels = [], []
    cache = (np.zeros(1 << _CACHE_BITS, np.uint64), np.zeros(1 << _CACHE_BITS, np.int32), {})
    blocks = []
    size = max(1, _BLOCK_BYTES // 8)  # small, as the first chunk's labels are all new
    while chunk := _chunk(fh, size):
        text, starts, lengths, arity = _block_fields(chunk.encode(), delim, width)
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
        # kept in the smallest type that holds the ids, the blocks take far less than the matrix
        block = _label_ids(text, starts, lengths, rounds, labels, cache)
        blocks.append(block.astype(np.min_scalar_type(len(labels))).reshape(-1, width))
        # a chunk also takes as many characters as there are label ids, so that the
        # sorted keys grow by a share at a time and merging into them stays linear
        size = max(_BLOCK_BYTES, len(labels))
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
    return read_input(path, _NO_SAMPLE, dataset=True)


def read_input(path, empty: str, dataset: bool | None = None) -> CountTable | Dataset:
    """The file ``path`` as a dataset if ``dataset``, else as a count table; None reads a
    count table only if every field of the first data line is an integer. A file without
    a data line is the error ``empty``."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            head, delim = _head(fh, path, empty)
            if dataset is None:
                try:
                    [int(f) for f in head]
                    dataset = False
                except ValueError:
                    dataset = True
            return (_dataset if dataset else _count_table)(head, delim, fh, path)
        except UnicodeDecodeError as exc:
            # the failed read's bytes, those the decoder held back and then the block read
            # (less a leading byte-order mark), end where the buffer stands
            try:
                at = f" at byte {fh.buffer.tell() - len(exc.object) + exc.start} of the file"
            except OSError:  # a pipe or FIFO, /dev/stdin among them, has no position
                at = ""
            raise ValueError(f"{path}: not UTF-8{at} ({exc.reason})") from None
