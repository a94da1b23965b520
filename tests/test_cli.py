"""Command-line surface: ingestion, reports, ranking, ess, experiments."""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from depscore import (DependenceReport, DofMode, EssResult, _read, cli, constraint_lhs,
                      constraint_rhs, make_prob_table, mi_plugin, si_threshold)
from depscore.cli import MAX_CURVE_POINTS, build_parser, main, read_count_table, read_dataset
from depscore.experiments import FIG3_MAX_N

MI_2112 = 0.05663301226513249
# the report fields that are nan when the dof is below 1
DOF_FIELDS = ("mi_bc", "indep_std", "r_score", "si", "si_fisher", "p_naive", "log_p")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out: str) -> dict:
    vals = {}
    for line in out.strip().split("\n"):
        if line.startswith("#") or "\t" not in line:
            continue
        k, v = line.split("\t", 1)
        vals[k] = v
    return vals


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_read_count_table_with_comments(tmp_path):
    f = tmp_path / "t.counts"
    f.write_text("# a comment\n2 1\n1 2\n")
    assert read_count_table(f).counts.tolist() == [[2, 1], [1, 2]]


def test_read_count_table_comma_delimited(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("10,2\n3,15\n")
    assert read_count_table(f).counts.tolist() == [[10, 2], [3, 15]]


def test_read_count_table_ragged(tmp_path):
    f = tmp_path / "bad.counts"
    f.write_text("1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="arity"):
        read_count_table(f)


def test_read_dataset_first_appearance_mapping(tmp_path):
    f = tmp_path / "d.tsv"
    f.write_text("color\tsize\nred\tbig\nblue\tsmall\nred\tbig\n")
    ds = read_dataset(f)
    assert ds.names == ["color", "size"]
    assert ds.labels[0] == ["red", "blue"]
    t = ds.pair_table("color", "size")
    assert t.counts.tolist() == [[2, 0], [0, 1]]


def reference_dataset(rows):
    """First-appearance label maps and index columns, one row at a time."""
    maps = [dict() for _ in rows[0]]
    cols = [[] for _ in rows[0]]
    for row in rows:
        for j, val in enumerate(row):
            if val not in maps[j]:
                maps[j][val] = len(maps[j])
            cols[j].append(maps[j][val])
    return [list(m) for m in maps], cols


def reference_pair_counts(col_a, col_b, card_a, card_b):
    counts = [[0] * card_b for _ in range(card_a)]
    for a, b in zip(col_a, col_b):
        counts[a][b] += 1
    return counts


@pytest.mark.parametrize("delim", [",", ",,", "\t", "\t\t", " ", "   "],
                         ids=["comma", "commas", "tab", "tabs", "space", "spaces"])
def test_read_dataset_matches_reference(tmp_path, delim):
    gen = np.random.default_rng(sum(map(ord, delim)))
    names = [f"v{j}" for j in range(6)]
    rows = []
    for _ in range(300):
        rows.append([f"{'#' if j and gen.random() < 0.1 else ''}s{j}_{int(gen.integers(0, 2 + j))}"
                     for j in range(len(names))])
    lines = [delim.join(names)]
    for i, row in enumerate(rows):
        if i % 50 == 7:
            lines.append("# a comment line")
        if i % 60 == 11:
            lines.append("   ")
        lines.append(delim.join(row))
    f = tmp_path / "d.txt"
    f.write_text("\n".join(lines) + "\n")
    labels, cols = reference_dataset(rows)
    ds = read_dataset(f)
    assert ds.names == names
    assert ds.labels == labels
    assert [c.tolist() for c in ds.columns] == cols
    for a, b in ((0, 5), (3, 1), (2, 2)):
        t = ds.pair_table(names[a], names[b])
        assert t.counts.tolist() == reference_pair_counts(
            cols[a], cols[b], len(labels[a]), len(labels[b]))


def test_read_dataset_peaks_below_one_object_per_field(tmp_path):
    # 5,000 rows x 101 columns of 2-byte labels. Read one Python object per
    # field, this file peaked at 8.36 MB under tracemalloc (Python 3.11, numpy 2.4).
    rows = np.random.default_rng(0).integers(0, 6, (5000, 101)).tolist()
    f = tmp_path / "wide.csv"
    f.write_text(",".join(f"v{j}" for j in range(101)) + "\n"
                 + "".join(",".join(f"s{v}" for v in row) + "\n" for row in rows))
    tracemalloc.start()
    try:
        ds = read_dataset(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c[:3].tolist() for c in ds.columns[:2]] == [[0, 1, 2], [0, 1, 1]]
    assert peak < 8.36e6


def test_read_dataset_peak_follows_the_fields_not_the_bytes(tmp_path):
    # 200,000 rows x 3 columns, the first a unique 10-byte label per row. The padded
    # copy has the same fields in five times the bytes: empty fields and comment lines.
    # It peaks no higher, as a reader that holds one chunk of the file at a time does;
    # both files peaked near 52 bytes a field (Python 3.11, numpy 2.4).
    rows = 200_000
    lines = ["id,a,b"] + [f"r{i:09d},{i % 7},{i % 3}" for i in range(rows)]
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_text("".join(line + "\n" for line in lines))
    padded.write_text("".join(line + "," * 30 + "\n# " + "x" * 30 + "\n" for line in lines))
    assert padded.stat().st_size > 5 * plain.stat().st_size
    peaks = []
    for f in (plain, padded):
        tracemalloc.start()
        try:
            ds = read_dataset(f)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(ds.labels[0]) == rows and [len(x) for x in ds.labels[1:]] == [7, 3]
        del ds
    assert max(peaks) < 80 * rows * 3
    assert peaks[1] - peaks[0] < (padded.stat().st_size - plain.stat().st_size) / 8


def test_a_long_line_comes_back_whole_in_one_chunk(tmp_path):
    # a chunk that stops inside a line takes the rest of it from readline, which reads a
    # line in time linear in its length; a reader whose reads were of a fixed size, each
    # copying all the line held so far, took 17 s on a 20 MB line
    data = b"a,b\n" + b"x" * (1 << 22) + b",y\r\n1,2"
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
    assert _read._head(fh, "long.csv", "empty") == (["a", "b"], ",")
    chunks = list(iter(lambda: _read._chunk(fh, 8192), ""))
    assert chunks == ["x" * (1 << 22) + ",y\n", "1,2"]
    f = tmp_path / "long.csv"
    f.write_bytes(data)
    ds = read_dataset(f)
    assert ds.names == ["a", "b"] and ds.labels == [["x" * (1 << 22), "1"], ["y", "2"]]
    assert [c.tolist() for c in ds.columns] == [[0, 1], [0, 1]]


def test_a_long_label_takes_time_linear_in_its_length(tmp_path, monkeypatch):
    # coded a round of numpy calls per 4 bytes, a 40,000-byte label took 0.55 s and a
    # 200,000-byte one 6 s; keyed by its bytes, a label takes no round past the 8 that
    # a label of _LONG_LABEL bytes takes, and this 1 MB one reads in about 10 ms
    class Rounds(np.ndarray):  # _BYTE_MASKS, whose take() each round of _label_ids calls
        count = 0

        def take(self, *args, **kwargs):
            Rounds.count += 1
            assert Rounds.count <= 64, "a label is coded a round per 4 of its bytes"
            return np.asarray(self).take(*args, **kwargs)
    monkeypatch.setattr(_read, "_BYTE_MASKS", _read._BYTE_MASKS.view(Rounds))
    rows = [["x" * 1_000_000 + "é", "1"], ["q", "2"], ["x" * 1_000_000 + "é", "2"]]
    f = tmp_path / "long.csv"
    f.write_text("a,b\n" + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    ds = read_dataset(f)
    assert 0 < Rounds.count
    labels, cols = reference_dataset(rows)
    assert ds.labels == labels
    assert [c.tolist() for c in ds.columns] == cols


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("head, row, argv", [
    (b"", b"10 20\n", ["measure"]),
    (b"", b"10 20\n", ["ess"]),
    (b"a b\n", b"x y\n", ["rank", "--class-column", "b"]),
    (b"a b\n", b"x y\n", ["measure", "--pair", "a", "b"]),
], ids=["measure-counts", "ess", "rank", "measure-pair"])
def test_a_byte_that_is_not_utf8_is_named_by_its_file_offset(tmp_path, capsys, bom, head, row,
                                                             argv):
    # byte 16,002 of the file, a byte-order mark counted, lies in its third chunk
    data = bom + head + row * 4000
    f = tmp_path / "bad.txt"
    f.write_bytes(data[:16_002] + b"\xff" + data[16_003:])
    assert run_cli(capsys, *argv, "--input", str(f)) == (
        1, "", f"error: {f}: not UTF-8 at byte 16002 of the file (invalid start byte)\n")


@pytest.mark.parametrize("read", [read_dataset, read_count_table])
@pytest.mark.parametrize("bad_row, reported", [(1_000, "utf8"), (40_000, "arity")],
                         ids=["one-chunk", "chunks-apart"])
def test_of_two_faults_a_bad_byte_in_the_chunk_being_read_is_reported(tmp_path, read, bad_row,
                                                                        reported):
    # the ragged row 10 comes first; a bad byte 4 KB in lies in the same chunk of either
    # format and is reported, and one 160 KB in is never decoded before the ragged row's
    # chunk is checked
    rows = [b"1,2\n"] * 50_000
    rows[10], rows[bad_row] = b"1,2,3\n", b"\xff,2\n"
    data = (b"a,b\n" if read is read_dataset else b"") + b"".join(rows)
    f = tmp_path / "two.csv"
    f.write_bytes(data)
    at = data.index(b"\xff")
    with pytest.raises(ValueError) as err:
        read(f)
    assert str(err.value) == (f"{f}: not UTF-8 at byte {at} of the file (invalid start byte)"
                              if reported == "utf8" else f"{f}: row arity 3 != first row arity 2")


def test_a_bad_byte_gone_when_the_file_is_read_again_is_named_without_an_offset(tmp_path):
    # the offset comes from a second, binary read, which must end even if the file has
    # changed since and holds no bad byte
    f = tmp_path / "t.txt"
    f.write_bytes(b"1 2\n3 4\n" * 10_000)
    exc = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
    assert _read._not_utf8(f, exc) == "not UTF-8 (invalid start byte)"


def test_wide_spaces_are_the_whitespace_of_str_split_beyond_ascii():
    # a whitespace-delimited file splits its fields on these, as str.split() does
    assert _read._WIDE_SPACES == "".join(c for c in map(chr, range(128, 0x110000)) if c.isspace())


def test_dataset_row_with_hash_first_label_is_a_comment(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("a,b\n#x,u\ny,v\nx,#u\ny,v\n")
    ds = read_dataset(f)
    assert ds.labels == [["y", "x"], ["v", "#u"]]
    assert [c.tolist() for c in ds.columns] == [[0, 1, 0], [0, 1, 0]]


@pytest.mark.parametrize("header, repeated, argv", [
    pytest.param("x,x,y", "x", ["rank", "--class-column", "y"], id="rank"),
    pytest.param("y,a,b,a", "a", ["rank", "--class-column", "y"], id="rank-later-column"),
    pytest.param("x,x,y", "x", ["measure", "--pair", "x", "y"], id="measure-pair"),
    pytest.param("x,x", "x", ["measure"], id="measure-two-columns"),
])
def test_repeated_column_name_exits_1_naming_it(tmp_path, capsys, header, repeated, argv):
    # the second column of a repeated name was never read: rank scored the first twice
    f = tmp_path / "d.csv"
    width = header.count(",") + 1
    f.write_text(header + "\n" + "".join(",".join(str((i + j) % 2) for j in range(width)) + "\n"
                                         for i in range(6)))
    code, out, err = run_cli(capsys, *argv, "--input", str(f))
    assert code == 1 and out == ""
    assert f"column name {repeated!r} is repeated" in err


@pytest.mark.parametrize("text, argv", [
    pytest.param("200 100\n100 200\n", ["measure", "--input"], id="measure-counts"),
    pytest.param("200 100\n100 200\n", ["ess", "--input"], id="ess"),
    pytest.param("1 2\n2 1\n", ["ess", "--input", "{table}", "--prior"], id="ess-prior"),
    pytest.param("g,y\na,0\nb,1\na,1\nb,1\na,0\n", ["measure", "--pair", "g", "y", "--input"],
                 id="measure-dataset"),
    pytest.param("g,h,y\na,u,0\nb,u,1\na,v,1\nb,v,1\na,u,0\n",
                 ["rank", "--class-column", "y", "--input"], id="rank-dataset"),
])
def test_byte_order_mark_changes_no_output(tmp_path, capsys, text, argv):
    # with a BOM, a count table failed the integer sniff and read as a one-sample
    # dataset, and a dataset's first column was named '\ufeffg'
    table = tmp_path / "table.txt"
    table.write_text("200 100\n100 200\n")
    outs = []
    for name, data in (("plain", text), ("bom", "\ufeff" + text)):
        f = tmp_path / name
        f.write_text(data, encoding="utf-8")
        code, out, err = run_cli(capsys, *[a.format(table=table) for a in argv], str(f))
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert "\ufeff" not in outs[1]


@pytest.mark.parametrize("data, message", [
    pytest.param(b"1 2\n\xff 1\n", "not UTF-8 at byte 4 of the file (invalid start byte)",
                 id="not-utf8"),
    pytest.param(b"", "no data rows", id="empty"),
])
def test_a_bad_prior_file_exits_1_naming_it(tmp_path, capsys, data, message):
    # --prior is the one second file a command reads; it is opened as the input is
    table, prior = tmp_path / "table.txt", tmp_path / "prior.txt"
    table.write_text("200 100\n100 200\n")
    prior.write_bytes(data)
    assert run_cli(capsys, "ess", "--input", str(table), "--prior", str(prior)) == (
        1, "", f"error: {prior}: {message}\n")


@pytest.mark.parametrize("name, text, argv", [
    pytest.param("bad.counts", "1 2 3\n4 5\n", ["measure"], id="measure-counts"),
    pytest.param("bad.counts", "1 2\n3 4 5\n", ["ess"], id="ess-counts"),
    pytest.param("bad.csv", "a,b,y\nx,u,p\nx,u\n", ["rank", "--class-column", "y"],
                 id="rank-dataset"),
    pytest.param("bad.csv", "a,b\nx,u\ny,v,w\n", ["measure"], id="measure-dataset"),
])
def test_ragged_input_exits_1_naming_arity(tmp_path, capsys, name, text, argv):
    f = tmp_path / name
    f.write_text(text)
    code, out, err = run_cli(capsys, *argv, "--input", str(f))
    assert code == 1 and out == ""
    assert "arity" in err


@pytest.mark.parametrize("argv", [["measure"], ["rank", "--class-column", "y"]])
def test_one_column_dataset_exits_1(tmp_path, capsys, argv):
    f = tmp_path / "d.csv"
    f.write_text("y\na\nb\na\n")
    code, out, err = run_cli(capsys, *argv, "--input", str(f))
    assert code == 1 and out == ""
    assert err == f"error: {f}: need at least two columns\n"


@pytest.mark.parametrize("name, text, argv", [
    pytest.param("t.counts", "# weights\n2 1\n1 2\n", [], id="counts"),
    pytest.param("d.tsv", "a\tb\nx\tu\ny\tv\nx\tv\n", [], id="dataset"),
    pytest.param("d.csv", "f,g,y\nx,u,p\ny,v,q\nx,v,p\n", ["--pair", "f", "y"],
                 id="dataset-pair"),
])
def test_measure_opens_input_once(tmp_path, capsys, monkeypatch, name, text, argv):
    f = tmp_path / name
    f.write_text(text)
    real_open = open
    opened = []

    def counting_open(file, *args, **kwargs):
        if str(file) == str(f):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, out, err = run_cli(capsys, "measure", "--input", str(f), *argv)
    assert code == 0, err
    assert "n\t" in out
    assert len(opened) == 1


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def test_measure_counts_file(tmp_path, capsys):
    f = tmp_path / "t.counts"
    f.write_text("2 1\n1 2\n")
    code, out, err = run_cli(capsys, "measure", "--input", str(f))
    assert code == 0 and err == ""
    vals = parse_kv(out)
    assert float(vals["mi_plugin"]) == pytest.approx(MI_2112, abs=1e-12)
    assert int(vals["n"]) == 6 and int(vals["dof"]) == 1
    assert float(vals["ni"]) == pytest.approx(MI_2112 / math.log(2.0), abs=1e-12)
    for field in ("mi_bc", "indep_std", "r_score", "si", "si_fisher",
                  "p_naive", "log_p"):
        assert field in vals


def test_measure_dataset_matches_counts(tmp_path, capsys):
    # [(x,u),(y,v),(x,u)] maps to the diagonal-ish table [[2,0],[0,1]], whose
    # effective dof is 0: the full report, with nan in every dof-based field
    ds = tmp_path / "d.tsv"
    ds.write_text("a\tb\nx\tu\ny\tv\nx\tu\n")
    code, out, _ = run_cli(capsys, "measure", "--input", str(ds))
    assert code == 0
    assert "# labels a: x y" in out
    assert out.count(cli._UNDEFINED_NOTE + "\n") == 1
    vals = parse_kv(out)
    assert list(vals) == [f.name for f in fields(DependenceReport)]
    assert int(vals["n"]) == 3 and int(vals["dof"]) == 0
    assert all(vals[k] == "nan" for k in DOF_FIELDS)
    assert float(vals["ni"]) == 1.0
    cf = tmp_path / "t.counts"
    cf.write_text("2 0\n0 1\n")
    code2, out2, _ = run_cli(capsys, "measure", "--input", str(cf))
    assert code2 == 0
    assert parse_kv(out2) == {k: v for k, v in vals.items()}


def test_measure_pair_reads_an_all_integer_file_as_a_dataset(tmp_path, capsys):
    # header and labels are integers, so without --pair the file is a count table
    ds = tmp_path / "d.txt"
    ds.write_text("10 20\n7 5\n7 5\n8 5\n8 6\n8 6\n7 5\n")
    code, out, err = run_cli(capsys, "measure", "--input", str(ds), "--pair", "10", "20")
    assert code == 0 and err == ""
    assert out.startswith("# labels 10: 7 8\n# labels 20: 5 6\n")
    cf = tmp_path / "t.counts"
    cf.write_text("3 0\n1 2\n")
    code2, out2, _ = run_cli(capsys, "measure", "--input", str(cf))
    assert code2 == 0 and parse_kv(out) == parse_kv(out2)
    code3, out3, _ = run_cli(capsys, "measure", "--input", str(ds))
    assert code3 == 0 and int(parse_kv(out3)["n"]) == 107


@pytest.mark.parametrize("value", ["auto", "dataset", "counts"])
def test_measure_format_flag_is_gone(tmp_path, capsys, value):
    f = tmp_path / "t.counts"
    f.write_text("200 100\n100 200\n")
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--format", value, "--input", str(f)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --format" in captured.err


def test_measure_roundtrip_dataset_to_counts(tmp_path, capsys):
    ds = tmp_path / "d.csv"
    ds.write_text("f,g\n" + "\n".join(
        f"l{i % 3},m{(i * 2 + 1) % 4}" for i in range(60)) + "\n")
    code, out, _ = run_cli(capsys, "measure", "--input", str(ds))
    assert code == 0
    table = read_dataset(ds).pair_table("f", "g")
    cf = tmp_path / "round.counts"
    cf.write_text("\n".join(" ".join(str(int(x)) for x in row)
                            for row in table.counts) + "\n")
    code2, out2, _ = run_cli(capsys, "measure", "--input", str(cf))
    assert code2 == 0
    assert parse_kv(out) == parse_kv(out2)


def test_measure_malformed_dataset_exits_nonzero(tmp_path, capsys):
    f = tmp_path / "bad.tsv"
    f.write_text("a\tb\nx\ty\nonlyone\n")
    code, out, err = run_cli(capsys, "measure", "--input", str(f))
    assert code == 1
    assert out == ""            # no partial output
    assert "arity" in err


def test_measure_dof_flag(tmp_path, capsys):
    f = tmp_path / "diag.counts"
    f.write_text("5 0\n0 5\n")
    code, out, _ = run_cli(capsys, "measure", "--input", str(f))
    assert code == 0 and cli._UNDEFINED_NOTE in out      # effective dof 0
    assert parse_kv(out)["si"] == "nan" and parse_kv(out)["log_p"] == "nan"
    code2, out2, _ = run_cli(capsys, "measure", "--input", str(f),
                             "--dof", "nominal")
    assert code2 == 0 and "#" not in out2 and "nan" not in out2
    assert float(parse_kv(out2)["si"]) == pytest.approx(2.723297411059034, abs=1e-9)


def test_measure_one_cell_table_nominal(tmp_path, capsys):
    # nominal dof 1 scores the dof-based measures; both marginal entropies are
    # 0, so ni alone is undefined
    f = tmp_path / "one.counts"
    f.write_text("7 0\n0 0\n")
    code, out, err = run_cli(capsys, "measure", "--input", str(f), "--dof", "nominal")
    assert code == 0 and err == ""
    vals = parse_kv(out)
    assert vals["ni"] == "nan" and out.count("#") == 1
    assert float(vals["si"]) == -1.0 and float(vals["log_p"]) == 0.0
    assert "nan" not in [v for k, v in vals.items() if k != "ni"]


@pytest.mark.parametrize("rows", ["9999999999999999999999 1\n1 1\n",
                                  f"{2**62} {2**62}\n{2**62} 1\n"])
def test_measure_counts_beyond_int64(tmp_path, capsys, rows):
    f = tmp_path / "big.counts"
    f.write_text(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "measure", "--input", str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: counts too large for int64") and err.count("\n") == 1


HUGE = str(10**400)  # past float's range


@pytest.mark.parametrize("argv, message", [
    (["measure", "--input", "{huge}"], "counts too large for int64: their total is not below 2**63"),
    (["ess", "--input", "{huge}"], "counts too large for int64: their total is not below 2**63"),
    (["ess", "--input", "{counts}", "--prior", "{huge}"],
     "counts too large for int64: their total is not below 2**63"),
    (["experiment", "fig2", "--seed", HUGE, "--replicates", "1", "--n-values", "25",
      "--out", "{out}"], f"seed must be an unsigned 64-bit integer, got {HUGE}"),
    (["experiment", "fig3", "--n-values", HUGE, "--replicates", "1", "--out", "{out}"],
     f"n must be an integer >= 1 and below 2**63, got {HUGE}"),
], ids=["measure", "ess", "ess-prior", "fig2-seed", "fig3-n"])
def test_integers_past_the_float_range_exit_1(tmp_path, capsys, argv, message):
    # each ended in "OverflowError: int too large to convert to float"
    paths = {"huge": tmp_path / "huge.txt", "counts": tmp_path / "t.txt", "out": tmp_path / "c.tsv"}
    paths["huge"].write_text(f"{HUGE} 1\n1 1\n")
    paths["counts"].write_text("200 100\n100 200\n")
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not paths["out"].exists()


def test_measure_large_near_uniform_table(tmp_path, capsys):
    # 201x201 with G just below dof: the p-value needs Q(s, x) at s = 20,000
    # and x near s, where a fixed iteration cap once ended in a traceback
    counts = np.random.default_rng(1).poisson(200, (201, 201))
    f = tmp_path / "u201.counts"
    f.write_text("\n".join(" ".join(map(str, row)) for row in counts) + "\n")
    code, out, err = run_cli(capsys, "measure", "--input", str(f))
    assert code == 0, err
    vals = parse_kv(out)
    assert int(vals["dof"]) == 200 * 200
    assert float(vals["si"]) < 0.0                    # G < dof
    assert 0.0 < float(vals["p_naive"]) < 1.0
    assert math.log(float(vals["p_naive"])) == pytest.approx(float(vals["log_p"]), rel=1e-9)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def make_rank_dataset(tmp_path):
    # y copies f1; f2 is noise against y
    rows = ["f1,f2,y"]
    pattern = [("a", "p", "0"), ("b", "q", "1"), ("a", "q", "0"), ("b", "p", "1")]
    for i in range(40):
        rows.append(",".join(pattern[i % 4]))
    f = tmp_path / "rank.csv"
    f.write_text("\n".join(rows) + "\n")
    return f


def test_rank_si_orders_predictor_first(tmp_path, capsys):
    f = make_rank_dataset(tmp_path)
    code, out, _ = run_cli(capsys, "rank", "--input", str(f),
                           "--class-column", "y", "--dof", "nominal")
    assert code == 0
    data = [ln.split("\t") for ln in out.strip().split("\n")
            if not ln.startswith("#")]
    header, first, second = data[0], data[1], data[2]
    assert header == ["rank", "id", "score", "notable"]
    assert first[1] == "f1" and second[1] == "f2"
    assert first[3] == "true" and second[3] == "false"


def test_rank_notable_is_strictly_above_the_threshold(tmp_path, capsys):
    # g agrees with y in 4 rows of 5, n is independent of y, and c is constant, so its
    # effective dof is 0 and its score nan, which is never notable; at alpha 0.5 the
    # threshold is 0
    rows = ["g,n,c,y"] + [f"{(i + (i % 5 == 0)) % 2},{'pq'[i // 2 % 2]},k,{i % 2}"
                          for i in range(40)]
    f = tmp_path / "d.csv"
    f.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "rank", "--input", str(f), "--class-column", "y",
                           "--alpha", "0.5")
    assert code == 0
    data = [ln.split("\t") for ln in out.strip().split("\n") if not ln.startswith("#")]
    assert data[0] == ["rank", "id", "score", "notable"]
    notable = {row[1]: row[3] for row in data[1:]}
    assert notable == {row[1]: "true" if float(row[2]) > si_threshold(0.5) else "false"
                       for row in data[1:]}
    assert data[-1][1:] == ["c", "nan", "false"] and notable["n"] == "false"
    assert notable["g"] == "true"


def test_rank_p_value_uses_log_key(tmp_path, capsys):
    f = make_rank_dataset(tmp_path)
    code, out, _ = run_cli(capsys, "rank", "--input", str(f),
                           "--class-column", "y", "--measure", "p_value",
                           "--dof", "nominal")
    assert code == 0
    lines = [ln for ln in out.strip().split("\n") if not ln.startswith("#")]
    assert lines[0].split("\t") == ["rank", "id", "score", "log_p"]
    assert lines[1].split("\t")[1] == "f1"
    log_ps = [float(ln.split("\t")[3]) for ln in lines[1:]]
    assert log_ps[0] < log_ps[1]


def test_rank_unknown_column(tmp_path, capsys):
    f = make_rank_dataset(tmp_path)
    code, _, err = run_cli(capsys, "rank", "--input", str(f),
                           "--class-column", "nope")
    assert code == 1 and "unknown column" in err


@pytest.mark.parametrize("argv", [["rank", "--class-column", "nope"],
                                  ["measure", "--pair", "nope", "f7"]])
def test_unknown_column_of_a_wide_file_is_one_short_line(tmp_path, capsys, argv):
    # the error names the column, how many there are and the first few, not all 4,000
    f = tmp_path / "wide.csv"
    f.write_text(",".join(f"f{j}" for j in range(4000)) + "\n" + ",".join(["a"] * 4000) + "\n")
    code, out, err = run_cli(capsys, *argv, "--input", str(f))
    assert code == 1 and out == ""
    assert err == "error: unknown column 'nope'; have 4000 columns: f0, f1, f2, f3, f4, ...\n"


NUMPY_OOM = "Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type int64"


@pytest.mark.parametrize("exc, err", [
    (MemoryError(NUMPY_OOM), f"error: out of memory: {NUMPY_OOM}\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_allocation_failure_is_one_error_line(tmp_path, capsys, monkeypatch, exc, err):
    # a pair table numpy cannot allocate is an error (exit 1), not a traceback
    def pair_table(self, name_a, name_b):
        raise exc
    monkeypatch.setattr(cli.Dataset, "pair_table", pair_table)
    f = make_rank_dataset(tmp_path)
    assert run_cli(capsys, "rank", "--input", str(f), "--class-column", "y") == (1, "", err)


def test_rank_constant_column_named(tmp_path, capsys):
    # a column with one label is a 2-state variable with one empty state: its
    # effective dof is 0, so under si it is named in the ranking, last, as nan
    f = tmp_path / "const.csv"
    f.write_text("f,const,y\n" + "\n".join(
        f"v{i % 3},k,w{i % 2}" for i in range(200)) + "\n")
    code, out, err = run_cli(capsys, "rank", "--input", str(f), "--class-column", "y")
    assert code == 0 and err == ""
    rows = [ln.split("\t") for ln in out.strip().split("\n") if not ln.startswith("#")]
    assert rows[-1][:3] == ["2", "const", "nan"]
    code, out, err = run_cli(capsys, "measure", "--input", str(f), "--pair", "f", "const")
    assert code == 0 and err == ""
    assert "# labels const: k" in out and parse_kv(out)["si"] == "nan"


def make_degenerate_dataset(tmp_path):
    """Class y; p predicts it perfectly, c is constant, g1 and g2 are noisy copies."""
    gen = np.random.default_rng(3)
    y = gen.integers(0, 3, size=300)
    g1 = np.where(gen.random(300) < 0.7, y, gen.integers(0, 3, size=300))
    g2 = np.where(gen.random(300) < 0.4, y, gen.integers(0, 3, size=300))
    rows = ["g1,p,c,g2,y"] + [f"a{u},b{v},k,d{w},y{v}" for u, v, w in zip(g1, y, g2)]
    f = tmp_path / "degenerate.csv"
    f.write_text("\n".join(rows) + "\n")
    return f


def rank_rows(out: str) -> list[list[str]]:
    """The ranked rows of `rank` output, without comments and header."""
    return [ln.split("\t") for ln in out.strip().split("\n") if not ln.startswith("#")][1:]


@pytest.mark.parametrize("measure", ["si", "si_fisher", "p_value", "mi_bc"])
def test_rank_undefined_candidates_last(tmp_path, capsys, measure):
    # effective dof: the diagonal table of p and the empty state of c leave no
    # residual dof, so both are undefined and rank after every scored feature
    f = make_degenerate_dataset(tmp_path)
    code, out, err = run_cli(capsys, "rank", "--input", str(f), "--class-column", "y",
                             "--measure", measure)
    assert code == 0 and err == ""
    assert out.count(cli._UNDEFINED_NOTE + "\n") == 1 and "inf" not in out
    rows = rank_rows(out)
    assert [r[1] for r in rows] == ["g1", "g2", "c", "p"]   # ties: dof 0 both, then id
    assert all(r[2] == "nan" for r in rows[2:])
    assert all(r[2] != "nan" for r in rows[:2])
    if measure == "p_value":
        assert [r[3] for r in rows[2:]] == ["nan", "nan"]


@pytest.mark.parametrize("measure", ["si", "p_value", "mi_bc"])
def test_rank_perfect_predictor_first_under_nominal_dof(tmp_path, capsys, measure):
    f = make_degenerate_dataset(tmp_path)
    code, out, err = run_cli(capsys, "rank", "--input", str(f), "--class-column", "y",
                             "--measure", measure, "--dof", "nominal")
    assert code == 0 and err == ""
    assert "nan" not in out and cli._UNDEFINED_NOTE not in out
    rows = rank_rows(out)
    assert rows[0][1] == "p" and rows[-1][1] == "c"


def test_rank_ni_scores_both_degenerate_columns(tmp_path, capsys):
    # ni reads no dof and the class has entropy, so both are defined: the
    # perfect predictor scores 1, the constant column 0
    f = make_degenerate_dataset(tmp_path)
    code, out, err = run_cli(capsys, "rank", "--input", str(f), "--class-column", "y",
                             "--measure", "ni")
    assert code == 0 and err == ""
    assert "nan" not in out and cli._UNDEFINED_NOTE not in out
    rows = rank_rows(out)
    assert rows[0][1:] == ["p", "1.0"] and rows[-1][1:] == ["c", "0.0"]


def test_rank_single_feature(tmp_path, capsys):
    f = tmp_path / "two.csv"
    f.write_text("a,y\n" + "\n".join(
        f"v{i % 2},w{(i % 2) if i % 5 else 1 - i % 2}" for i in range(20)) + "\n")
    code, out, _ = run_cli(capsys, "rank", "--input", str(f), "--class-column", "y")
    assert code == 0
    rows = [ln for ln in out.strip().split("\n") if not ln.startswith("#")]
    assert len(rows) == 2   # header + one feature


# ---------------------------------------------------------------------------
# ess
# ---------------------------------------------------------------------------

def test_ess_command(tmp_path, capsys):
    f = tmp_path / "t.counts"
    f.write_text("200 100\n100 200\n")
    code, out, err = run_cli(capsys, "ess", "--input", str(f))
    assert code == 0 and err == ""
    vals = parse_kv(out)
    assert list(vals) == [f.name for f in fields(EssResult)]
    assert float(vals["n_prime_approx"]) == pytest.approx(8.65617024533378, rel=1e-9)
    assert float(vals["n_prime_exact"]) == pytest.approx(8.782880425682307, rel=1e-12)
    assert vals["used_safe_joint"] == "false"


def test_ess_no_root_distinct_exit(tmp_path, capsys):
    f = tmp_path / "indep.counts"
    f.write_text("2 2\n2 2\n")
    code, out, err = run_cli(capsys, "ess", "--input", str(f))
    assert code == 3
    assert "no-root" in err


@pytest.mark.parametrize("rows", ["5 0\n0 7\n", "0 3\n9 0\n"])
def test_ess_zero_dof_no_root(tmp_path, capsys, rows):
    f = tmp_path / "diag.counts"
    f.write_text(rows)
    code, out, err = run_cli(capsys, "ess", "--input", str(f))
    assert code == 3 and out == ""
    assert "no-root" in err and "dof is 0" in err


def test_ess_curve_output(tmp_path, capsys):
    f = tmp_path / "t.counts"
    f.write_text("200 100\n100 200\n")
    out_path = tmp_path / "curve.tsv"
    code, out, _ = run_cli(capsys, "ess", "--input", str(f),
                           "--curve", "40", "--curve-points", "21",
                           "--out", str(out_path))
    assert code == 0
    assert out.endswith(f"# curve written to {out_path}\n")
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "n_prime\tlhs\trhs"
    assert len(lines) == 22
    # the curve's rhs column is the printed rhs, to the last digit
    assert {ln.split("\t")[2] for ln in lines[1:]} == {parse_kv(out)["rhs"]}


def test_ess_curve_nominal_dof_grid(tmp_path, capsys):
    f = tmp_path / "t.counts"
    f.write_text("200 100\n100 200\n")
    out = tmp_path / "curve.tsv"
    code, _, _ = run_cli(capsys, "ess", "--input", str(f), "--curve", "40",
                         "--curve-points", "11", "--dof", "nominal", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n_prime\tlhs\trhs"
    assert [ln.split("\t")[0] for ln in lines[1:]] == [f"{4 * i}" for i in range(11)]
    _check_curve_rows(out, f, DofMode.NOMINAL)


@pytest.mark.parametrize("rows", ["5 0\n0 7\n", "2 2\n2 2\n"])
def test_ess_curve_written_without_root(tmp_path, capsys, rows):
    # the curve is written before the solve, so a table with no root keeps it
    f = tmp_path / "t.counts"
    f.write_text(rows)
    out = tmp_path / "curve.tsv"
    code, stdout, err = run_cli(capsys, "ess", "--input", str(f), "--curve", "10",
                                "--curve-points", "3", "--out", str(out))
    assert code == 3 and stdout == "" and "no-root" in err
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    _check_curve_rows(out, f, DofMode.EFFECTIVE)
    assert lines[1].split("\t")[:2] == ["0", repr(mi_plugin(read_count_table(f)))]


@pytest.mark.parametrize("out", ["missing/curve.tsv", "."])
def test_ess_curve_unwritable_out_prints_nothing(tmp_path, capsys, out):
    # the curve is written before the result is printed, so a failed write
    # leaves stdout empty
    f = tmp_path / "t.counts"
    f.write_text("200 100\n100 200\n")
    code, stdout, err = run_cli(capsys, "ess", "--input", str(f), "--curve", "40",
                                "--out", str(tmp_path / out))
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _check_curve_rows(path, table_path, mode, prior=None):
    """Every field is a plain number and each lhs is the constraint's left side."""
    t = read_count_table(table_path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n_prime\tlhs\trhs"
    for line in lines[1:]:
        g, lhs, rhs = (float(v) for v in line.split("\t"))
        assert lhs == pytest.approx(constraint_lhs(t, g, prior), rel=1e-12)
        assert rhs == constraint_rhs(t, mode)


def test_ess_curve_rows_are_plain_numbers(tmp_path, capsys):
    f = tmp_path / "t.counts"
    f.write_text("30 12 5\n10 28 9\n")
    w = tmp_path / "w.counts"
    w.write_text("1 2 1\n3 1 2\n")
    prior = make_prob_table(read_count_table(w).counts / 10.0)
    curve = tmp_path / "curve.tsv"
    code, _, _ = run_cli(capsys, "ess", "--input", str(f), "--prior", str(w),
                         "--dof", "nominal", "--curve", "60", "--curve-points", "31",
                         "--out", str(curve))
    assert code == 0
    _check_curve_rows(curve, f, DofMode.NOMINAL, prior)
    code, _, _ = run_cli(capsys, "ess", "--input", str(f), "--dof", "effective",
                         "--curve", "60", "--curve-points", "31", "--out", str(curve))
    assert code == 0
    _check_curve_rows(curve, f, DofMode.EFFECTIVE)


@pytest.mark.parametrize("argv", [
    ["ess", "--curve", "nan"],
    ["ess", "--curve", "inf"],
    ["ess", "--curve", "-1"],
    ["ess", "--curve", "10", "--curve-points", "0"],
    ["ess", "--curve", "10", "--curve-points", str(MAX_CURVE_POINTS + 1)],
    ["ess", "--curve", "10", "--curve-points", "100000000000"],
    # --curve-points and --out need --curve; the bare command fails on the --out added below
    ["ess", "--curve-points", "5"],
    ["ess"],
    # --alpha must lie strictly between 0 and 1, whichever measure reads it
    ["experiment", "fig3", "--measures", "p_value", "--alpha", "0"],
    ["experiment", "fig3", "--measures", "mi_bc", "--alpha", "1.5"],
    ["experiment", "fig2", "--alpha", "nan"],
    ["rank", "--class-column", "y", "--measure", "mi_bc", "--alpha", "nan"],
    ["rank", "--class-column", "y", "--measure", "p_value", "--alpha", "2"],
    ["rank", "--class-column", "y", "--alpha", "1"],
    ["rank", "--class-column", "y", "--alpha", "-0.05"],
    ["rank", "--class-column", "y", "--alpha", "inf"],
])
def test_curve_flags_are_usage_errors(tmp_path, capsys, argv):
    f = tmp_path / "t.counts"
    f.write_text("200 100\n100 200\n")
    out = tmp_path / "curve.tsv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", str(f), "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
    flag = argv[-2] if len(argv) > 1 else "--out"
    assert len(errors) == 1 and f"argument {flag}" in errors[0]
    assert not out.exists()


def test_curve_points_cap_is_inclusive():
    args = build_parser().parse_args(["ess", "--input", "t", "--curve", "0",
                                      "--curve-points", str(MAX_CURVE_POINTS)])
    assert args.curve == 0.0 and args.curve_points == MAX_CURVE_POINTS


@pytest.mark.parametrize("alpha", ["5e-324", "1e-17", "0.05", repr(1.0 - 2.0**-53)])
def test_alpha_takes_every_float_strictly_between_0_and_1(alpha):
    for argv in (["rank", "--input", "d", "--class-column", "y"],
                 ["experiment", "fig3", "--out", "c"]):
        assert build_parser().parse_args([*argv, "--alpha", alpha]).alpha == float(alpha)


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # each in-process call prints what the same argv prints in a fresh process
    counts = tmp_path / "t.counts"
    counts.write_text("200 100\n100 200\n")
    diagonal = tmp_path / "diag.counts"
    diagonal.write_text("5 0\n0 7\n")
    data = tmp_path / "d.csv"
    data.write_text("y,a,b\n" + "".join(f"{y},{a},{b}\n" for y, a, b in zip(
        "010101100011", "xxyyxyxyxxyy", "ppqqqppqpqqp")))
    measure = ["measure", "--input", str(counts)]
    calls = [
        [*measure, "--dof", "sideways"],
        ["--version"],
        measure,
        ["ess", "--input", str(counts)],
        ["ess", "--input", str(diagonal)],
        ["rank", "--input", str(data), "--class-column", "y"],
        ["experiment", "fig2", "--replicates", "1", "--z-grid", "0.0,0.1",
         "--n-values", "25", "--out", str(tmp_path / "fig2.tsv")],
        measure,
    ]
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    cli._parser.cache_clear()
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "depscore", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, captured.out, captured.err) \
            == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [2, 0, 0, 0, 3, 0, 0, 0]
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def test_experiment_fig3_deterministic_rerun(tmp_path, capsys):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    args = ["experiment", "fig3", "--seed", "7", "--replicates", "3",
            "--n-values", "32,64", "--measures", "si,ni"]
    code1, out1, _ = run_cli(capsys, *args, "--out", str(a))
    code2, out2, _ = run_cli(capsys, *args, "--out", str(b))
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    assert "wrote" in out1


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_experiment_wrote_line_names_the_normalized_path(tmp_path, capsys, monkeypatch, name):
    # both studies print the path as pathlib writes it: ./c.tsv as c.tsv
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "experiment", name, "--replicates", "1",
                           "--n-values", "32", "--out", "./c.tsv")
    assert code == 0 and out.splitlines()[0] == "wrote c.tsv"
    assert (tmp_path / "c.tsv").is_file()


def test_experiment_fig2_writes_per_n_files(tmp_path, capsys):
    out = tmp_path / "fig2.tsv"
    code, stdout, _ = run_cli(
        capsys, "experiment", "fig2", "--seed", "3", "--replicates", "2",
        "--z-grid", "0.0,0.1", "--n-values", "25,100", "--measures", "si",
        "--out", str(out))
    assert code == 0
    assert (tmp_path / "fig2_n25.tsv").exists()
    assert (tmp_path / "fig2_n100.tsv").exists()
    text = (tmp_path / "fig2_n25.tsv").read_text()
    assert text.splitlines()[-1].startswith("0.1\t")


def test_experiment_fig2_default_fractions_in_range(tmp_path, capsys):
    out = tmp_path / "f.tsv"
    code, _, _ = run_cli(
        capsys, "experiment", "fig2", "--seed", "1", "--replicates", "2",
        "--z-grid", "0.0,0.05", "--n-values", "25", "--out", str(out))
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    for row in lines[1:]:
        for cell in row.split("\t")[1:-1]:   # last column is p_underflow
            assert 0.0 <= float(cell) <= 1.0


@pytest.mark.parametrize("argv", [
    ["fig3", "--n-values", ""],
    ["fig3", "--n-values", "32,,64"],
    ["fig2", "--n-values", ""],
    ["fig2", "--z-grid", ""],
    ["fig2", "--z-grid", "0.0,x"],
])
def test_experiment_bad_list_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "curve.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", *argv, "--replicates", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "comma-separated" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["fig2", "fig3"])
@pytest.mark.parametrize("measures", ["", ",", "si,,ni", "si,nope"])
def test_experiment_bad_measures_is_usage_error(tmp_path, capsys, name, measures):
    out = tmp_path / "curve.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", name, "--measures", measures, "--replicates", "1",
              "--n-values", "32", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--measures" in err and "comma-separated" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["fig2", "--z", "0.2"], ["fig3", "--z-grid", "0.5,9"]])
def test_experiment_other_studys_flag_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "curve.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", *argv, "--replicates", "1", "--n-values", "32", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[1]}: not allowed with {argv[0]}" in captured.err
    assert not list(tmp_path.iterdir())


def test_experiment_measures_tolerate_spaces(tmp_path, capsys):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    args = ["experiment", "fig3", "--replicates", "1", "--n-values", "32"]
    assert run_cli(capsys, *args, "--measures", "si, ni", "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--measures", "si,ni", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_fig2_repeated_n_is_an_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "experiment", "fig2", "--replicates", "1",
                             "--n-values", "25,25", "--out", str(tmp_path / "c.tsv"))
    assert code == 1 and not out
    assert "distinct" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n", [FIG3_MAX_N + 1, 100_000_000_000])
def test_experiment_fig3_sample_size_cap(tmp_path, capsys, n):
    code, out, err = run_cli(capsys, "experiment", "fig3", "--replicates", "1",
                             "--n-values", f"32,{n}", "--out", str(tmp_path / "c.tsv"))
    assert code == 1 and out == ""
    assert err == f"error: n must be an integer from 1 to FIG3_MAX_N = {FIG3_MAX_N} " \
                  f"for feature selection, got {n}\n"
    assert not list(tmp_path.iterdir())


def test_experiment_fig2_failed_second_write_prints_nothing(tmp_path, capsys):
    (tmp_path / "c_n100.tsv").mkdir()
    code, out, err = run_cli(capsys, "experiment", "fig2", "--replicates", "1",
                             "--n-values", "25,100", "--out", str(tmp_path / "c.tsv"))
    assert code == 1 and out == ""
    assert "Is a directory" in err


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_experiment_sample_size_of_2_63_is_an_error(tmp_path, capsys, name):
    code, out, err = run_cli(capsys, "experiment", name, "--replicates", "1",
                             "--n-values", f"32,{2**63}", "--out", str(tmp_path / "c.tsv"))
    assert code == 1 and out == ""
    assert err == f"error: n must be an integer >= 1 and below 2**63, got {2**63}\n"
    assert not list(tmp_path.iterdir())


def test_experiment_fig2_largest_sample_size_runs(tmp_path, capsys):
    out = tmp_path / "c.tsv"
    code, _, err = run_cli(capsys, "experiment", "fig2", "--replicates", "1", "--z-grid", "0.05",
                           "--n-values", str(2**63 - 1), "--out", str(out))
    assert code == 0 and err == ""
    assert out.read_text().splitlines()[-1].split("\t")[0] == "0.05"


def test_experiment_fig3_alpha_below_machine_epsilon(tmp_path, capsys):
    # 1 - 1e-17 rounds to 1.0; the notability threshold is taken from alpha itself
    out = tmp_path / "c.tsv"
    code, _, err = run_cli(capsys, "experiment", "fig3", "--alpha", "1e-17", "--replicates", "1",
                           "--n-values", "32", "--measures", "si", "--out", str(out))
    assert code == 0 and err == ""
    assert "# alpha: 1e-17" in out.read_text()
