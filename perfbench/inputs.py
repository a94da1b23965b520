"""Seeded input generators for the benchmark workloads.

Only numpy is used here; the program under test is never imported, so the
inputs are the same whatever the program does with them. Every generator
draws from its own ``SeedSequence(seed, spawn_key=(k,))`` stream, so one
``--seed`` gives the same inputs on every run and machine.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

N_CLASSES = 4
NOISE = 0.3
CLASS_COLUMN = "cls"

# rank-wide: 20,000 samples of a 4-state class and 200 features.
RANK_ROWS, RANK_FEATURES = 20_000, 200
# The rank probe run on studies-tables: the same model, 100 times fewer cells.
# rank-wide's checked pass of the other measures uses a dataset of this size too.
PROBE_RANK_ROWS, PROBE_RANK_FEATURES = 2_000, 20

# tables-mixed: one stream of count tables per seed.
STREAM_TABLES = 400
PROBE_STREAM_TABLES = 60
# Large near-independent tables (about 200 counts per cell). They do not depend
# on --seed: a uniform 142x142 or 201x201 sample whose statistic 2N*MI falls
# below its dof hits the incomplete-gamma series cap in every run, and one whose
# statistic lies above it does not, so the failed share is the same on every seed.
LARGE_TABLES = ((142, 1), (142, 2), (201, 4), (201, 5))
COUNTS_PER_CELL = 200
CLI_EVERY = 8        # table i goes through `measure` if i % 8 == 0, `ess` if i % 8 == 4

# rank-wide: the measures of the checked pass besides the timed `--measure si`.
# The pass runs on the small dataset: the measure changes under 1% of a rank's
# time, and five ranks of the wide file would take 20 s of every run.
OTHER_MEASURES = ("mi_plugin", "mi_bc", "si_fisher", "ni", "p_value")

# studies: replicates per study run. Each run takes about 0.3 s on the
# reference machine, so one run of the workload repeats both studies dozens
# of times and its median is taken over many samples.
FIG2_REPLICATES, FIG3_REPLICATES = 10, 4
PROBE_FIG2_REPLICATES, PROBE_FIG3_REPLICATES = 1, 1
VERIFY_FIG2_REPLICATES, VERIFY_FIG3_REPLICATES = 4, 3
# Tables one replicate samples at the default grids: fig2 11 z x 3 n, fig3 10 n x 20 features.
FIG2_TABLES, FIG3_TABLES = 33, 200

# The parts each workload's rounds are made of. The studies and the table
# stream share one workload: two workloads leave each run long enough for its
# medians to average over the host's swings in speed (see README.md).
WORKLOADS = {"rank-wide": ("rank-wide",),
             "studies-tables": ("studies", "tables-mixed")}
# For each workload, the parts whose small probes give the end-to-end metrics
# it does not measure itself.
PROBES = {"rank-wide": ("studies", "tables-mixed"),
          "studies-tables": ("rank-wide",)}

_STREAM_RANK, _STREAM_TABLES, _STREAM_DESIGN = 1, 2, 3


def workload_dir(work: Path, workload: str, probe: bool) -> Path:
    """Where one workload's inputs and outputs live inside a run's work directory."""
    return work / (f"{workload}-probe" if probe else workload)


def verify_seed(seed: int) -> int:
    """The seed of the short study run whose columns are recomputed; no round uses it."""
    return 2 ** 32 + seed


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))))


# ---------------------------------------------------------------------------
# rank-wide datasets
# ---------------------------------------------------------------------------

def rank_dataset(seed: int, rows: int, features: int):
    """Class ``y`` (4 states) and features ``(y + noise) % k``, k = 2..8 in turn.

    With probability NOISE a feature's noise is uniform on 0..k-1, else 0.
    Every 20th feature is an exact copy of the one before it, so the ranking
    has exact ties that the tie policy must break by id. Returns
    ``(names, y, xs, ks)``: feature names f001.., the class indices, the
    feature index arrays and their cardinalities.
    """
    rng = _rng(seed, _STREAM_RANK)
    y = rng.integers(0, N_CLASSES, rows)
    xs, ks = [], []
    for j in range(features):
        if j % 20 == 19:
            xs.append(xs[-1])
            ks.append(ks[-1])
            continue
        k = 2 + j % 7
        noisy = rng.random(rows) < NOISE
        noise = np.where(noisy, rng.integers(0, k, rows), 0)
        xs.append((y + noise) % k)
        ks.append(k)
    names = [f"f{j + 1:03d}" for j in range(features)]
    return names, y, xs, ks


def write_dataset(path: Path, names, y, xs) -> None:
    """CSV with a header and string labels: class ``c<v>``, feature ``s<v>``."""
    cols = [np.array([f"c{v}" for v in range(N_CLASSES)])[y].tolist()]
    for x in xs:
        cols.append(np.array([f"s{v}" for v in range(int(x.max()) + 1)])[x].tolist())
    lines = [",".join([CLASS_COLUMN, *names])]
    lines += [",".join(row) for row in zip(*cols)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# tables-mixed streams
# ---------------------------------------------------------------------------

def _usable(c: np.ndarray) -> bool:
    """No empty row or column and at least one effective degree of freedom."""
    rows, cols = c.sum(axis=1) > 0, c.sum(axis=0) > 0
    return bool(rows.all() and cols.all()
                and int((c > 0).sum()) - int(rows.sum()) - int(cols.sum()) + 1 >= 1)


def _dependent_joint(rng, a: int, b: int, strength: float, zero_share: float) -> np.ndarray:
    """Mixture of an independent joint and a functional one, with structural zeros."""
    pa = rng.dirichlet(np.full(a, 2.0))
    pb = rng.dirichlet(np.full(b, 2.0))
    func = np.zeros((a, b))
    func[np.arange(a), rng.integers(0, b, a)] = pa
    p = (1.0 - strength) * np.outer(pa, pb) + strength * func
    if zero_share > 0.0:
        zero = rng.random((a, b)) < zero_share
        zero[zero.all(axis=1)] = False
        zero[:, zero.all(axis=0)] = False
        p = np.where(zero, 0.0, p)
    return (p / p.sum()).ravel()


def _small_design(rng) -> tuple:
    """2x2..8x8, N from 20 to 5,000 (log-uniform), independent to strongly dependent.

    A quarter are independent; a fifth have structural zeros, so the
    safe-joint floor of the ESS solver fires.
    """
    a, b = (int(v) for v in rng.integers(2, 9, 2))
    n = int(round(np.exp(rng.uniform(np.log(20.0), np.log(5000.0)))))
    strength = 0.0 if rng.random() < 0.25 else 0.95 * float(rng.random())
    zero_share = 0.2 if rng.random() < 0.2 else 0.0
    return a, b, n, strength, zero_share


def _medium_design(rng) -> tuple:
    """10x10..50x50, 5 to 50 counts per cell, weak to moderate dependence."""
    a, b = (int(v) for v in rng.integers(10, 51, 2))
    return a, b, int(a * b * rng.uniform(5.0, 50.0)), 0.5 * float(rng.random()), 0.0


def _draw(rng, a: int, b: int, n: int, strength: float, zero_share: float) -> np.ndarray:
    """A usable table of one design: new joints until one yields it."""
    for _ in range(1000):
        p = _dependent_joint(rng, a, b, strength, zero_share)
        for _ in range(20):
            c = rng.multinomial(n, p).reshape(a, b)
            if _usable(c):
                return c
    raise RuntimeError(f"no usable {a}x{b} table at n={n}")


def large_table(card: int, seed: int) -> np.ndarray:
    """Uniform card x card sample with COUNTS_PER_CELL counts per cell on average."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cells = card * card
    return rng.multinomial(COUNTS_PER_CELL * cells, np.full(cells, 1.0 / cells)).reshape(card, card)


def table_stream(seed: int, count: int, with_large: bool) -> list[dict]:
    """``count`` tables: every 5th medium, the rest small, large ones spread evenly.

    The designs (shape, N, dependence strength, structural zeros) are the
    same for every seed, so every seed asks for the same amount of work;
    the seed draws the joints and the counts. Each entry is
    ``{"counts", "cli", "large"}``; ``cli`` names the command (``measure``,
    ``ess`` or ``both``) the table also goes through, or is None.
    """
    design = _rng(0, _STREAM_DESIGN)
    rng = _rng(seed, _STREAM_TABLES)
    large_at = {}
    if with_large:
        step = count // len(LARGE_TABLES)
        large_at = {step * (i + 1) - 1: spec for i, spec in enumerate(LARGE_TABLES)}
    out = []
    for i in range(count):
        if i in large_at:
            out.append({"counts": large_table(*large_at[i]), "cli": "both", "large": True})
            continue
        counts = _draw(rng, *(_medium_design if i % 5 == 4 else _small_design)(design))
        cli = {0: "measure", CLI_EVERY // 2: "ess"}.get(i % CLI_EVERY)
        out.append({"counts": counts, "cli": cli, "large": False})
    return out


def write_stream(directory: Path, stream: list[dict]) -> None:
    """``tables.npz`` for the library calls, one count file per CLI table, and a manifest."""
    np.savez(directory / "tables.npz", *[e["counts"] for e in stream])
    manifest = []
    for i, e in enumerate(stream):
        name = None
        if e["cli"]:
            name = f"t{i:04d}.txt"
            rows = ("\t".join(map(str, row)) for row in e["counts"].tolist())
            (directory / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
        manifest.append({"cli": e["cli"], "file": name, "large": e["large"]})
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
