"""The process that runs depscore for one benchmark run.

``run.py`` generates the inputs, starts this script with ``src`` on
``PYTHONPATH``, and checks what it leaves behind. Everything the program
does happens here, in one process and one thread: the public API and
``depscore.cli.main(argv)`` are called in-process, and each call is timed
with ``time.perf_counter``. The result, with the outputs that ``run.py``
checks, goes to ``<work>/result.json``.

Usage: python3 worker.py --workload W --seconds T --trace 0|1 --work DIR --seed S
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from depscore import cli, ess, measures, tables
from inputs import (CLASS_COLUMN, FIG2_REPLICATES, FIG2_TABLES, FIG3_REPLICATES, FIG3_TABLES,
                    OTHER_MEASURES, PROBE_FIG2_REPLICATES, PROBE_FIG3_REPLICATES, PROBES,
                    VERIFY_FIG2_REPLICATES, VERIFY_FIG3_REPLICATES, WORKLOADS, verify_seed,
                    workload_dir)
from tracing import Tracer

clock = time.perf_counter

MIN_CYCLES = 5
SETUP_EVERY_S = 3.0
# Probe rounds per own round. A rank-wide round takes about 4 s, so one probe
# round per cycle would give its probe metrics only about 10 samples a run.
PROBE_REPEATS = {"rank-wide": 4, "studies-tables": 2}


def call_cli(argv) -> tuple[int, str, str]:
    """``depscore.cli.main(argv)`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


class Workload:
    """Whole rounds of one part of a workload; every round repeats the same operations."""

    tables_per_round = 0

    def __init__(self) -> None:
        self.round_times: list[float] = []
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.identical = True

    def warm_up(self) -> None:
        """One round that is neither timed nor counted: lazy set-up finishes first."""
        self.round()
        self.round_times.clear()
        for times in self.times.values():
            times.clear()
        self.attempted = self.failed = 0

    def unexpected(self, what: str, detail) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {detail}")

    def timed_round(self) -> float:
        elapsed = self.round()
        self.round_times.append(elapsed)
        return elapsed

    def round(self) -> float:
        raise NotImplementedError


class RankWide(Workload):
    """``depscore rank --measure si`` on one dataset; other measures once, checked."""

    def __init__(self, directory: Path) -> None:
        super().__init__()
        self.dir = directory
        self.csv = directory / "rank.csv"
        # the probe has no separate dataset for the checked pass: it is small already
        check_csv = directory / "rank_check.csv"
        self.check_csv = check_csv if check_csv.is_file() else self.csv
        with open(self.csv, encoding="utf-8") as fh:
            self.tables_per_round = len(fh.readline().split(",")) - 1
        self.first: bytes | None = None

    def _rank(self, measure: str, csv: Path) -> int:
        out = self.dir / f"rank_{measure}.tsv"
        rc, _, err = call_cli(["rank", "--input", csv, "--class-column", CLASS_COLUMN,
                               "--measure", measure, "--out", out])
        if rc != 0:
            self.errors.append(f"rank --measure {measure}: exit {rc}: {err.strip()}")
        return rc

    def warm_up(self) -> None:
        """One untimed round, then the checked pass with every other measure."""
        self._rank("si", self.csv)
        for measure in OTHER_MEASURES:
            self._rank(measure, self.check_csv)

    def round(self) -> float:
        t0 = clock()
        rc = self._rank("si", self.csv)
        elapsed = clock() - t0
        self.attempted += 1
        self.failed += rc != 0
        text = (self.dir / "rank_si.tsv").read_bytes()
        if self.first is None:
            self.first = text
        self.identical &= text == self.first
        return elapsed

    def metrics(self) -> dict[str, float]:
        return {"rank_s": statistics.median(self.round_times)}


class Studies(Workload):
    """``depscore experiment fig2`` then ``fig3`` at one seed, default grids."""

    def __init__(self, directory: Path, seed: int, fig2_reps: int, fig3_reps: int) -> None:
        super().__init__()
        self.dir = directory
        self.seed = seed
        self.reps = {"fig2": fig2_reps, "fig3": fig3_reps}
        self.tables_per_round = FIG2_TABLES * fig2_reps + FIG3_TABLES * fig3_reps
        self.times = {"fig2": [], "fig3": []}
        self.first: dict[str, bytes] = {}

    def _study(self, name: str, seed: int, reps: int, prefix: str) -> float:
        out = self.dir / f"{prefix}{name}.tsv"
        t0 = clock()
        rc, _, err = call_cli(["experiment", name, "--seed", seed, "--replicates", reps,
                               "--out", out])
        elapsed = clock() - t0
        if rc != 0:
            self.unexpected(f"experiment {name}", f"exit {rc}: {err.strip()}")
        return elapsed

    def _outputs(self, prefix: str) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(self.dir.glob(f"{prefix}fig*.tsv"))}

    def round(self) -> float:
        total = 0.0
        for name in ("fig2", "fig3"):
            elapsed = self._study(name, self.seed, self.reps[name], "")
            self.attempted += 1
            self.times[name].append(elapsed)
            total += elapsed
        outputs = self._outputs("")
        if not self.first:
            self.first = outputs
        self.identical &= outputs == self.first
        return total

    def verification_run(self) -> None:
        """Short untimed run at a seed no round uses; run.py recomputes its columns."""
        seed = verify_seed(self.seed)
        self._study("fig2", seed, VERIFY_FIG2_REPLICATES, "verify_")
        self._study("fig3", seed, VERIFY_FIG3_REPLICATES, "verify_")

    def metrics(self) -> dict[str, float]:
        return {"fig2_s": statistics.median(self.times["fig2"]),
                "fig3_s": statistics.median(self.times["fig3"])}


class TablesMixed(Workload):
    """Each table through from_counts, report() and solve_ess(); some through the CLI."""

    def __init__(self, directory: Path) -> None:
        super().__init__()
        self.dir = directory
        with np.load(directory / "tables.npz") as npz:
            self.counts = [npz[f"arr_{i}"] for i in range(len(npz.files))]
        self.tables_per_round = len(self.counts)
        self.manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
        self.times = {"report": [], "ess": [], "cli": []}
        self.records: list[dict] | None = None

    def _failure(self, what: str, exc: Exception, large: bool) -> dict:
        """Count a failed operation; only the named fault leaves the run correct."""
        self.failed += 1
        # The named fault: the incomplete-gamma series hits its cap at large
        # shape, report() raises RuntimeError and cli.main lets it escape.
        if not (large and isinstance(exc, RuntimeError) and "failed to converge" in str(exc)):
            self.errors.append(f"{what}: {exc!r}")
        return {"error": type(exc).__name__, "message": str(exc)}

    def _cli(self, command: str, path: str, large: bool) -> dict:
        self.attempted += 1
        t0 = clock()
        try:
            rc, out, err = call_cli([command, "--input", path])
        except Exception as exc:
            return self._failure(f"cli {command} {path}", exc, large)
        self.times["cli"].append(clock() - t0)
        if rc not in (0, 3):
            self.unexpected(f"cli {command} {path}", f"exit {rc}: {err.strip()}")
        return {"rc": rc, "stdout": out}

    def round(self) -> float:
        records = []
        t_start = clock()
        for counts, entry in zip(self.counts, self.manifest):
            record: dict = {}
            large = entry["large"]
            table = tables.from_counts(counts)
            self.attempted += 2
            t0 = clock()
            try:
                record["report"] = measures.report(table)
                self.times["report"].append(clock() - t0)
            except Exception as exc:
                record["report"] = self._failure("report", exc, large)
            t0 = clock()
            try:
                record["ess"] = ess.solve_ess(table)
                # only solves that find a root: the no-root share differs by seed
                self.times["ess"].append(clock() - t0)
            except ess.NoRootError as exc:
                record["ess"] = {"error": "NoRootError", "message": str(exc)}
            except Exception as exc:
                record["ess"] = self._failure("solve_ess", exc, large)
            if entry["cli"]:
                path = str(self.dir / entry["file"])
                for command in (("measure", "ess") if entry["cli"] == "both" else (entry["cli"],)):
                    record[f"cli_{command}"] = self._cli(command, path, large)
            records.append(record)
        elapsed = clock() - t_start
        if self.records is None:
            self.records = records
        return elapsed

    def metrics(self) -> dict[str, float]:
        return {"report_us": 1e6 * statistics.median(self.times["report"]),
                "ess_us": 1e6 * statistics.median(self.times["ess"]),
                "cli_table_ms": 1e3 * statistics.median(self.times["cli"])}


def build(workload: str, work: Path, seed: int, probe: bool) -> Workload:
    directory = workload_dir(work, workload, probe)
    if workload == "rank-wide":
        return RankWide(directory)
    if workload == "studies":
        if probe:
            return Studies(directory, seed, PROBE_FIG2_REPLICATES, PROBE_FIG3_REPLICATES)
        return Studies(directory, seed, FIG2_REPLICATES, FIG3_REPLICATES)
    return TablesMixed(directory)


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that imports depscore.cli.

    No timeout: with one, ``subprocess`` polls the child in sleeps of up to
    50 ms, which would quantise the measurement.
    """
    t0 = clock()
    subprocess.run([sys.executable, "-c", "import depscore.cli"], check=True)
    return clock() - t0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    parts = [build(part, args.work, args.seed, probe=False) for part in WORKLOADS[args.workload]]
    for part in parts:
        part.warm_up()

    def own_round() -> float:
        """One round of the workload: one round of each of its parts."""
        return sum(part.timed_round() for part in parts)

    result: dict = {}
    if args.trace:
        # Untraced and traced rounds alternate, so the drift of the host's
        # speed falls on both alike and their difference is the overhead.
        tracer = Tracer()
        untraced: list[float] = []
        traced: list[float] = []
        deadline = clock() + args.seconds
        while len(traced) < MIN_CYCLES or clock() < deadline:
            untraced.append(own_round())
            tracer.install()
            tracer.begin_round()
            traced.append(own_round())
            tracer.uninstall()
        layers = tracer.metrics()
        layers["trace.untraced_wall_s"] = statistics.median(untraced)
        layers["trace.wall_s"] = statistics.median(traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        result["layers"] = layers
    else:
        # The metrics this workload does not own come from small probes of the
        # other parts. Probe rounds and set-up samples are interleaved with
        # the workload's own rounds, so that every metric samples the whole run
        # and not one stretch of it: on a shared host the CPU speed drifts by
        # tens of percent over seconds.
        probes = [build(other, args.work, args.seed, probe=True) for other in PROBES[args.workload]]
        for probe in probes:
            probe.warm_up()
        walls: list[float] = []
        setup: list[float] = []
        last_setup = -SETUP_EVERY_S
        deadline = clock() + args.seconds
        while len(walls) < MIN_CYCLES or clock() < deadline:
            walls.append(own_round())
            for _ in range(PROBE_REPEATS[args.workload]):
                for probe in probes:
                    probe.timed_round()
            if clock() - last_setup >= SETUP_EVERY_S:
                last_setup = clock()
                setup.append(setup_seconds())
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = statistics.median(walls)
        metrics = {"setup_s": statistics.median(setup), "wall_s": wall,
                   "tables_per_s": sum(part.tables_per_round for part in parts) / wall}
        for probe in probes:
            metrics.update(probe.metrics())
            result.setdefault("probe_errors", []).extend(probe.errors)
            if isinstance(probe, TablesMixed):
                result["tables_probe_records"] = probe.records
        for part in parts:
            metrics.update(part.metrics())
        result["metrics"] = metrics

    for part in parts:
        if isinstance(part, Studies):
            part.verification_run()
        if isinstance(part, TablesMixed):
            result["tables_records"] = part.records
    result.update(attempted=sum(part.attempted for part in parts),
                  failed=sum(part.failed for part in parts),
                  errors=[e for part in parts for e in part.errors],
                  identical=all(part.identical for part in parts))
    # reports and ESS results are dataclasses: asdict turns them into JSON objects
    (args.work / "result.json").write_text(json.dumps(result, default=asdict), encoding="utf-8")


if __name__ == "__main__":
    main()
