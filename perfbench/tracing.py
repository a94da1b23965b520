"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function at every place it is bound
(the defining module, every depscore module that imported it by name, and
the package namespace), so a call through any of those names opens a span.
Spans stay in memory as flat arrays (layer, parent, start, end); self time
is a span's duration minus the time its child spans cover. The program is
single-threaded, so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

import numpy as np

from depscore.ess import NoRootError

# (module, qualified name) of every traced function; the metric prefix is
# the module's last component plus the qualified name.
LAYERS = (
    ("depscore.cli", "main"),
    ("depscore.cli", "read_dataset"),
    ("depscore.cli", "Dataset.pair_table"),
    ("depscore.cli", "read_count_table"),
    ("depscore.tables", "from_samples"),
    ("depscore.tables", "from_counts"),
    ("depscore.tables", "sample_table"),
    ("depscore.tables", "merge_states"),
    ("depscore.tables", "dof"),
    ("depscore.measures", "mi_plugin"),
    ("depscore.measures", "report"),
    ("depscore.measures", "p_value"),
    ("depscore.measures", "normalized_mi"),
    ("depscore.numerics", "reg_gamma_upper"),
    ("depscore.numerics", "substream"),
    ("depscore.ranking", "score_candidates"),
    ("depscore.ranking", "rank"),
    ("depscore.ranking", "compare_discretizations"),
    ("depscore.ess", "solve_ess"),
    ("depscore.ess", "log_ratio_field"),
    ("depscore.experiments", "sample_nb_dataset"),
    ("depscore.experiments", "format_curve"),
)

# Functions that build a table from outside data: the base of calls_per_table.
TABLE_CONSTRUCTORS = ("tables.from_counts", "tables.from_samples", "tables.sample_table")


def layer_name(module: str, qualname: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{qualname}"


class Tracer:
    """In-memory span recorder with per-round grouping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.round_starts: list[int] = []
        # per round: [iterations, used_safe_joint, no_root] of solve_ess outcomes
        self.ess: list[list[int]] = []
        self.bindings: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        lid = len(self.names)
        self.names.append(name)
        layer, parent, start, end, stack = self.layer, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(None, exc)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, None)
            return result

        return traced

    def _observe_ess(self, result, exc) -> None:
        counts = self.ess[-1]
        if exc is None:
            counts[0] += int(getattr(result, "iterations", 0))
            counts[1] += int(result.used_safe_joint)
        elif isinstance(exc, NoRootError):
            counts[2] += 1

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place a traced function is bound."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "depscore" or n.startswith("depscore."))]
        out = []
        for modname, qualname in LAYERS:
            owner = sys.modules[modname]
            name = layer_name(modname, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[attr]
                out.append((cls, attr, original, self._wrap(name, original)))
                continue
            original = getattr(owner, qualname)
            observe = self._observe_ess if qualname == "solve_ess" else None
            wrapped = self._wrap(name, original, observe)
            out += [(mod, attr, original, wrapped)
                    for mod in modules for attr, value in vars(mod).items() if value is original]
        return out

    def install(self) -> None:
        """Put the wrappers in place of every function of LAYERS, wherever it is bound."""
        if not self.bindings:
            self.bindings = self._bindings()
        for obj, attr, _, wrapped in self.bindings:
            setattr(obj, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, original, _ in self.bindings:
            setattr(obj, attr, original)

    def begin_round(self) -> None:
        self.round_starts.append(len(self.layer))
        self.ess.append([0, 0, 0])

    # -- summary -----------------------------------------------------------

    def per_round(self) -> list[dict[str, tuple[int, float]]]:
        """For each round, ``{layer: (calls, self seconds)}``."""
        layer = np.array(self.layer, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        bounds = self.round_starts + [len(dur)]
        rounds = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            ids = layer[lo:hi]
            calls = np.bincount(ids, minlength=len(self.names))
            secs = np.bincount(ids, weights=self_time[lo:hi], minlength=len(self.names))
            rounds.append({name: (int(calls[i]), float(secs[i]))
                           for i, name in enumerate(self.names)})
        return rounds

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls per round and median self seconds per round."""
        rounds = self.per_round()
        out: dict[str, float] = {}

        def calls(name: str) -> int:
            return rounds[0][name][0]

        for name in self.names:
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = statistics.median(r[name][1] for r in rounds)
        tables = sum(calls(n) for n in TABLE_CONSTRUCTORS)
        out["measures.mi_plugin.calls_per_table"] = (
            calls("measures.mi_plugin") / tables if tables else 0.0)
        solves = calls("ess.solve_ess")
        out["ess.log_ratio_field.calls_per_solve"] = (
            calls("ess.log_ratio_field") / solves if solves else 0.0)
        out["ess.iterations"], out["ess.used_safe_joint"], out["ess.no_root"] = self.ess[0]
        return out
