"""Checks of the program's outputs, computed apart from the program.

Nothing here imports depscore. Tables are counted with ``np.bincount``,
information and entropies are summed here, chi-square tails come from
``scipy.stats.chi2.logsf`` (from mpmath where that underflows to -inf), and
the studies are re-sampled from their documented generative models. Each
check returns a list of problems; an empty list means the output is right.

A comparison that sits within 1e-9 of a decision threshold may go either
way: the program's float arithmetic and this file's differ in the last bits.
"""

from __future__ import annotations

import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

REL = 1e-9
ALPHA = 0.05
SI_THRESHOLD = NormalDist().inv_cdf(1.0 - ALPHA) / math.sqrt(2.0)
TIE_BAND = 1e-9


def close(a: float, b: float, rel: float = REL, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# reference measures
# ---------------------------------------------------------------------------

def mutual_information(c: np.ndarray) -> float:
    """Plug-in MI in nats: sum of c * log1p((c N - r k) / (r k)) over nonzero cells, over N.

    ``c N - r k`` is exact in int64 (N below 3e9), so near-independent
    tables keep their relative accuracy; a ratio-then-log sum does not.
    """
    c = np.asarray(c, dtype=np.int64)
    n = int(c.sum())
    rows, cols = c.sum(axis=1), c.sum(axis=0)
    i, j = np.nonzero(c)
    cells = c[i, j]
    expected = rows[i] * cols[j]
    terms = cells * np.log1p((cells * n - expected) / expected)
    return max(math.fsum(terms.tolist()) / n, 0.0)


def entropy(counts: np.ndarray) -> float:
    v = np.asarray(counts, dtype=float)
    v = v[v > 0] / v.sum()
    return float(-(v * np.log(v)).sum())


def effective_dof(c: np.ndarray) -> int:
    rows = int((c.sum(axis=1) > 0).sum())
    cols = int((c.sum(axis=0) > 0).sum())
    return max(0, int((c > 0).sum()) - rows - cols + 1)


def chi2_log_sf(stat: float, dof: int) -> float:
    """ln P(chi2_dof > stat)."""
    from scipy.stats import chi2

    value = float(chi2.logsf(stat, dof))
    if math.isfinite(value) and value > -700.0:
        return value
    import mpmath

    with mpmath.workdps(40):
        q = mpmath.gammainc(dof / 2.0, stat / 2.0, mpmath.inf, regularized=True)
        return float(mpmath.log(q))


class Reference:
    """Every measure of one table, computed here."""

    def __init__(self, c: np.ndarray) -> None:
        c = np.asarray(c, dtype=np.int64)
        self.counts = c
        self.n = int(c.sum())
        self.dof = effective_dof(c)
        self.mi = mutual_information(c)
        self.g = 2.0 * self.n * self.mi
        d = self.dof
        self.mi_bc = self.mi - d / (2.0 * self.n)
        self.si = math.sqrt(self.g) - math.sqrt(d) if d else math.nan
        self.si_fisher = math.sqrt(self.g) - math.sqrt(d - 0.5) if d else math.nan
        h = 0.5 * (entropy(c.sum(axis=1)) + entropy(c.sum(axis=0)))
        self.ni = min(self.mi / h, 1.0)
        self._log_p = None

    @property
    def log_p(self) -> float:
        if self._log_p is None:
            self._log_p = chi2_log_sf(self.g, self.dof)
        return self._log_p


def check_report(rep: dict, ref: Reference, where: str) -> list[str]:
    """A DependenceReport (as a dict) against the reference and its own invariants."""
    bad = []
    if rep["n"] != ref.n or rep["dof"] != ref.dof:
        bad.append(f"{where}: n/dof {rep['n']}/{rep['dof']} != {ref.n}/{ref.dof}")
        return bad
    n, d, mi = rep["n"], rep["dof"], rep["mi_plugin"]
    # the tail at the report's own statistic: the MI is checked on its own line
    log_p = chi2_log_sf(2.0 * n * mi, d)
    expect = {
        "mi_plugin": (ref.mi, REL, 1e-13),
        "ni": (ref.ni, REL, 1e-13),
        "log_p": (log_p, REL, 1e-12),
        # invariants of the report's own mi, exact up to rounding
        "mi_bc": (mi - d / (2.0 * n), 1e-12, 1e-15),
        "r_score": ((2.0 * n * mi - d) / math.sqrt(2.0 * d), 1e-12, 1e-12),
        "si": (math.sqrt(2.0 * n * mi) - math.sqrt(d), 1e-12, 1e-12),
        "si_fisher": (math.sqrt(2.0 * n * mi) - math.sqrt(d - 0.5), 1e-12, 1e-12),
        "indep_std": (math.sqrt(d) / (math.sqrt(2.0) * n), 1e-12, 0.0),
        "p_naive": (math.exp(log_p), REL, 4e-16),
    }
    for field, (want, rel, abs_tol) in expect.items():
        if not close(rep[field], want, rel, abs_tol):
            bad.append(f"{where}: {field} {rep[field]!r} != {want!r}")
    return bad


def check_ess(res: dict, ref: Reference, where: str, tol: float = 1e-10) -> list[str]:
    """solve_ess against the closed form of its constraint (uniform prior).

    The constraint's left side is (S_c + n' S_q) / (N + n') with S_c = sum N_ab L_ab
    and S_q = sum q_ab L_ab, so a root exists exactly when S_q < rhs < S_c / N.
    """
    c = ref.counts.astype(float)
    n = float(ref.n)
    rows, cols = c.sum(axis=1), c.sum(axis=0)
    safe = bool((c == 0).any())
    joint = np.maximum(c, 1.0) / n if safe else c / n
    field = np.log(joint) - np.log(rows[:, None] / n) - np.log(cols[None, :] / n)
    s_c = float((c * field).sum())
    s_q = float(field.mean())
    rhs = ref.mi - ref.dof / n
    scale = max(abs(rhs), abs(s_q), abs(s_c / n), 1e-300)
    near_edge = min(abs(rhs - s_q), abs(rhs - s_c / n)) <= TIE_BAND * scale
    has_root = s_q < rhs < s_c / n
    if res.get("error") == "NoRootError":
        if has_root and not near_edge:
            return [f"{where}: NoRootError but S_q < rhs < S_c/N"]
        return []
    if "error" in res:
        return [f"{where}: {res['error']}: {res.get('message')}"]
    bad = []
    if not has_root and not near_edge:
        bad.append(f"{where}: root {res['n_prime_exact']!r} where none exists")
        return bad
    n_prime = res["n_prime_exact"]
    residual = abs((s_c + n_prime * s_q) / (n + n_prime) - rhs)
    if not residual <= tol * (1.0 + 1e-6) + 1e-12:
        bad.append(f"{where}: constraint residual {residual!r} > {tol}")
    approx = ref.dof / (ref.mi - s_q)
    if not close(res["n_prime_approx"], approx):
        bad.append(f"{where}: n_prime_approx {res['n_prime_approx']!r} != {approx!r}")
    if not close(res["rhs"], rhs, REL, 1e-13):
        bad.append(f"{where}: rhs {res['rhs']!r} != {rhs!r}")
    if res["used_safe_joint"] != safe:
        bad.append(f"{where}: used_safe_joint {res['used_safe_joint']} != {safe}")
    if not res.get("iterations", 1) > 0:
        bad.append(f"{where}: iterations {res['iterations']}")
    return bad


def _fields(text: str) -> dict[str, str]:
    return dict(ln.split("\t", 1) for ln in text.splitlines() if ln and not ln.startswith("#"))


def _as_printed(value) -> str:
    """A library value as the CLI documents printing it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def check_tables(stream: list[dict], records: list[dict] | None) -> list[str]:
    """tables-mixed: report, solve_ess and the CLI commands for every table."""
    if records is None or len(records) != len(stream):
        return ["tables: no records for the stream"]
    bad = []
    for i, (entry, rec) in enumerate(zip(stream, records)):
        ref = Reference(entry["counts"])
        rep = rec["report"]
        if "error" in rep:
            # the named fault: the incomplete-gamma series cap at large shape
            if not (entry["large"] and rep["error"] == "RuntimeError" and ref.g < ref.dof):
                bad.append(f"table {i}: report raised {rep['error']}: {rep['message']}")
        else:
            bad += check_report(rep, ref, f"table {i}")
        bad += check_ess(rec["ess"], ref, f"table {i} ess")
        for command, lib in (("measure", rep), ("ess", rec["ess"])):
            out = rec.get(f"cli_{command}")
            if out is None:
                continue
            if "error" in lib:
                # the CLI fails as the library did: the same exception, or exit 3 for no-root
                ok = out.get("error") == lib["error"] or (lib["error"] == "NoRootError"
                                                          and out.get("rc") == 3)
            else:
                want = {k: _as_printed(v) for k, v in lib.items()}
                ok = out.get("rc") == 0 and _fields(out["stdout"]) == want
            if not ok:
                bad.append(f"table {i}: `{command}` output differs from the library result")
    return bad


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def _rank_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]


def check_rank(path: Path, measure: str, names, y, xs, ks, refs: dict) -> list[str]:
    """One `rank` output: every score to 1e-9 and the order under the tie policy."""
    header, rows = _rank_rows(path.read_text(encoding="utf-8"))
    where = f"rank --measure {measure}"
    if sorted(r[1] for r in rows) != sorted(names):
        return [f"{where}: ranked ids are not the feature set"]
    bad = []
    keys = []
    for pos, row in enumerate(rows, start=1):
        fid = row[1]
        j = names.index(fid)
        if fid not in refs:
            counts = np.bincount(xs[j] * 4 + y, minlength=ks[j] * 4).reshape(ks[j], 4)
            refs[fid] = Reference(counts)
        ref = refs[fid]
        score = float(row[2])
        if row[0] != str(pos):
            bad.append(f"{where}: rank column {row[0]} at row {pos}")
        if measure == "p_value":
            log_p = float(row[3])
            if not close(log_p, ref.log_p) or not close(score, math.exp(ref.log_p), REL, 4e-16):
                bad.append(f"{where}: {fid} p/log_p {score!r}/{log_p!r} != "
                           f"{math.exp(ref.log_p)!r}/{ref.log_p!r}")
            key = -log_p
        else:
            want = {"mi_plugin": ref.mi, "mi_bc": ref.mi_bc, "si": ref.si,
                    "si_fisher": ref.si_fisher, "ni": ref.ni}[measure]
            if not close(score, want):
                bad.append(f"{where}: {fid} score {score!r} != {want!r}")
            key = score
        if "notable" in header:
            margin = ref.si - SI_THRESHOLD
            flag = row[header.index("notable")]
            if abs(margin) > TIE_BAND and flag != ("true" if margin > 0 else "false"):
                bad.append(f"{where}: {fid} notable flag {flag}")
        keys.append((-key, ref.dof, fid))
    if keys != sorted(keys):
        bad.append(f"{where}: order breaks 'key descending; ties: smaller dof, then id'")
    return bad


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

FIG2_Z = tuple(round(0.01 * i, 10) for i in range(11))
FIG2_N = (25, 100, 500)
FIG3_N = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
FIG3_Z = 0.10
P_BINARY = np.array([0.6, 0.8, 0.3, 0.1])
_SIGN = np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def read_curve(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    text = path.read_text(encoding="utf-8")
    config = {}
    rows = []
    for ln in text.splitlines():
        if ln.startswith("# ") and ": " in ln:
            k, v = ln[2:].split(": ", 1)
            config[k] = v
        elif ln and not ln.startswith("#"):
            rows.append(ln.split("\t"))
    return config, rows[0], rows[1:]


def check_curve(path: Path, replicates: int) -> tuple[list[str], int]:
    """Fractions are counts over ``replicates`` in [0, 1]; returns (problems, p_underflow sum)."""
    config, header, rows = read_curve(path)
    bad = []
    if config.get("replicates") != str(replicates):
        bad.append(f"{path.name}: replicates {config.get('replicates')} != {replicates}")
    underflow = 0
    for row in rows:
        for name, value in zip(header[1:], row[1:]):
            if name == "p_underflow":
                underflow += int(value)
                if not 0 <= int(value) <= replicates:
                    bad.append(f"{path.name}: p_underflow {value} outside [0, {replicates}]")
                continue
            frac = float(value)
            count = round(frac * replicates)
            if not (0.0 <= frac <= 1.0 and value == f"{count / replicates:.6f}"):
                bad.append(f"{path.name}: {name} fraction {value} is not a count over {replicates}")
    return bad, underflow


def _stream(seed: int, r: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(r,))))


def _count_range(decisions) -> tuple[int, int]:
    """decisions: (favors_coarse, margin); near-threshold ones may go either way."""
    sure = sum(1 for fav, m in decisions if fav and abs(m) > TIE_BAND)
    loose = sum(1 for _, m in decisions if abs(m) <= TIE_BAND)
    return sure, sure + loose


def recompute_fig2(seed: int, replicates: int) -> dict[int, dict[str, list[tuple[int, int]]]]:
    """Per n and measure, the (min, max) count of replicates favoring 2 states, per z."""
    dists = {z: (1.0 / 16.0 + (z / 2.0) * _SIGN).ravel() for z in FIG2_Z}
    decisions = {n: {m: [[] for _ in FIG2_Z] for m in ("si", "mi_bc")} for n in FIG2_N}
    d_within = 9 - 1   # nominal dof: 4x4 fine table minus its 2x2 merging
    for r in range(replicates):
        gen = _stream(seed, r)
        for zi, z in enumerate(FIG2_Z):
            for n in FIG2_N:
                fine = gen.multinomial(n, dists[z]).reshape(4, 4)
                coarse = fine.reshape(2, 2, 2, 2).sum(axis=(1, 3))
                within = max(mutual_information(fine) - mutual_information(coarse), 0.0)
                si_margin = math.sqrt(2.0 * n * within) - math.sqrt(d_within) - SI_THRESHOLD
                bc_margin = within - d_within / (2.0 * n)
                decisions[n]["si"][zi].append((si_margin <= 0, si_margin))
                decisions[n]["mi_bc"][zi].append((bc_margin <= 0, bc_margin))
    return {n: {m: [_count_range(d) for d in per_z] for m, per_z in by_m.items()}
            for n, by_m in decisions.items()}


def recompute_fig3(seed: int, replicates: int) -> dict[str, list[tuple[int, int]]]:
    """Per measure, the (min, max) count of replicates preferring a binary feature, per n."""
    p_same = 0.25 + 3.0 * FIG3_Z
    decisions = {m: [[] for _ in FIG3_N] for m in ("si", "mi_bc")}
    for r in range(replicates):
        gen = _stream(seed, r)
        for ni, n in enumerate(FIG3_N):
            y = gen.integers(0, 4, size=n)
            x_bin = (gen.random((n, 10)) < P_BINARY[y][:, None]).astype(np.int64)
            same = gen.random((n, 10)) < p_same
            shift = gen.integers(0, 3, size=(n, 10))
            x_four = np.where(same, y[:, None], (y[:, None] + 1 + shift) % 4)
            mi2 = [mutual_information(np.bincount(x_bin[:, j] * 4 + y, minlength=8).reshape(2, 4))
                   for j in range(10)]
            mi4 = [mutual_information(np.bincount(x_four[:, j] * 4 + y, minlength=16).reshape(4, 4))
                   for j in range(10)]
            si2 = max(math.sqrt(2.0 * n * v) - math.sqrt(3) for v in mi2)
            si4 = max(math.sqrt(2.0 * n * v) - math.sqrt(9) for v in mi4)
            bc2 = max(v - 3 / (2.0 * n) for v in mi2)
            bc4 = max(v - 9 / (2.0 * n) for v in mi4)
            si_margin = si4 - (si2 + SI_THRESHOLD)
            bc_margin = bc4 - bc2
            decisions["si"][ni].append((si_margin <= 0, si_margin))
            decisions["mi_bc"][ni].append((bc_margin <= 0, bc_margin))
    return {m: [_count_range(d) for d in per_n] for m, per_n in decisions.items()}


def _match_columns(path: Path, expected: dict[str, list[tuple[int, int]]], replicates: int,
                   grid) -> list[str]:
    _, header, rows = read_curve(path)
    bad = []
    if [float(r[0]) for r in rows] != [float(x) for x in grid]:
        return [f"{path.name}: x grid differs from the documented default"]
    for m, ranges in expected.items():
        col = header.index(m)
        for row, (lo, hi) in zip(rows, ranges):
            count = round(float(row[col]) * replicates)
            if not lo <= count <= hi:
                bad.append(f"{path.name}: {m} at {row[0]}: {count} not in [{lo}, {hi}]")
    return bad


def check_studies(directory: Path, prefix: str, fig2_reps: int,
                  fig3_reps: int) -> tuple[list[str], int]:
    """Curve files of one round; returns (problems, p_underflow summed over them)."""
    bad, underflow = [], 0
    for n in FIG2_N:
        b, u = check_curve(directory / f"{prefix}fig2_n{n}.tsv", fig2_reps)
        bad += b
        underflow += u
    b, u = check_curve(directory / f"{prefix}fig3.tsv", fig3_reps)
    return bad + b, underflow + u


def check_verification(directory: Path, seed: int, fig2_reps: int, fig3_reps: int) -> list[str]:
    """The si and mi_bc columns of the short run, recomputed from the models."""
    bad, _ = check_studies(directory, "verify_", fig2_reps, fig3_reps)
    fig2 = recompute_fig2(seed, fig2_reps)
    for n in FIG2_N:
        bad += _match_columns(directory / f"verify_fig2_n{n}.tsv", fig2[n], fig2_reps, FIG2_Z)
    bad += _match_columns(directory / "verify_fig3.tsv", recompute_fig3(seed, fig3_reps),
                          fig3_reps, FIG3_N)
    return bad
