"""depscore benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload rank-wide|studies-tables \\
        --seed N --seconds T --trace 0|1

Run from the repository root. The program is taken from ``src/`` of the
same checkout, as source. This process makes the seeded inputs under
``perfbench/work/``, starts ``worker.py`` to run the program, checks the
outputs against computations of its own (``checks.py``), and prints one
JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``, with ``--trace 1``
its per-layer ones. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import inputs
from inputs import (FIG2_REPLICATES, FIG3_REPLICATES, OTHER_MEASURES, PROBE_FIG2_REPLICATES,
                    PROBE_FIG3_REPLICATES, PROBES, VERIFY_FIG2_REPLICATES, VERIFY_FIG3_REPLICATES,
                    WORKLOADS, verify_seed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170.0


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one thread: numpy's BLAS pools stay at one worker
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def make_inputs(workload: str, work: Path, seed: int, probe: bool) -> dict:
    """Write the inputs of one part of a workload; return what its checks need."""
    directory = inputs.workload_dir(work, workload, probe)
    directory.mkdir(parents=True)
    if workload == "rank-wide":
        small = inputs.rank_dataset(seed, inputs.PROBE_RANK_ROWS, inputs.PROBE_RANK_FEATURES)
        if probe:
            inputs.write_dataset(directory / "rank.csv", *small[:3])
            return {"dir": directory, "data": small, "check_data": small}
        # the checked pass of the other measures runs on the small dataset
        inputs.write_dataset(directory / "rank_check.csv", *small[:3])
        data = inputs.rank_dataset(seed, inputs.RANK_ROWS, inputs.RANK_FEATURES)
        inputs.write_dataset(directory / "rank.csv", *data[:3])
        return {"dir": directory, "data": data, "check_data": small}
    if workload == "studies":
        return {"dir": directory}
    count = inputs.PROBE_STREAM_TABLES if probe else inputs.STREAM_TABLES
    stream = inputs.table_stream(seed, count, with_large=not probe)
    inputs.write_stream(directory, stream)
    return {"dir": directory, "stream": stream}


def check(workload: str, made: dict, result: dict, seed: int, probe: bool) -> tuple[list[str], int]:
    """Problems found in one part's outputs, and the p_underflow sum of its curves."""
    directory = made["dir"]
    if workload == "rank-wide":
        bad = checks.check_rank(directory / "rank_si.tsv", "si", *made["data"], {})
        refs: dict = {}
        for m in OTHER_MEASURES:
            bad += checks.check_rank(directory / f"rank_{m}.tsv", m, *made["check_data"], refs)
        return bad, 0
    if workload == "studies":
        reps = ((PROBE_FIG2_REPLICATES, PROBE_FIG3_REPLICATES) if probe
                else (FIG2_REPLICATES, FIG3_REPLICATES))
        bad, underflow = checks.check_studies(directory, "", *reps)
        if not probe:
            bad += checks.check_verification(directory, verify_seed(seed),
                                             VERIFY_FIG2_REPLICATES, VERIFY_FIG3_REPLICATES)
        return bad, underflow
    records = result["tables_probe_records" if probe else "tables_records"]
    return checks.check_tables(made["stream"], records), 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (0 <= args.seed < 2 ** 32) or args.seconds <= 0:
        ap.error("--seed must be in [0, 2^32) and --seconds positive")
    if not (ROOT / "src" / "depscore" / "cli.py").is_file():
        print(f"error: no depscore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        env = program_env()
        metrics: dict[str, float] = {}
        own = {part: make_inputs(part, work, args.seed, probe=False)
               for part in WORKLOADS[args.workload]}
        probes = {} if args.trace else {other: make_inputs(other, work, args.seed, probe=True)
                                        for other in PROBES[args.workload]}
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--work", str(work), "--seed", str(args.seed)],
                       env=env, check=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))

        problems = list(result["errors"]) + list(result.get("probe_errors", []))
        if not result["identical"]:
            problems.append(f"{args.workload}: reruns at one seed are not byte-identical")
        underflow = 0
        for part, made in own.items():
            found, part_underflow = check(part, made, result, args.seed, probe=False)
            problems += found
            underflow += part_underflow
        for other, made_probe in probes.items():
            problems += check(other, made_probe, result, args.seed, probe=True)[0]

        if args.trace:
            metrics.update(result["layers"])
            metrics["experiments.p_underflow"] = underflow
        else:
            metrics.update(result["metrics"])
            metrics["peak_rss_mb"] = result["peak_rss_mb"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    line = {
        "correct": not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
