"""Layer spans recorded from outside the library.

The tracer replaces public library functions, as bound in each caller's
module namespace, with wrappers that record a span (name, start, end,
parent) plus one small detail of the call (a block dimension, a file size).
Spans stay in memory until the traced execution ends; self time is a span's
duration minus the time its child spans cover.  Nothing here changes what
the library computes.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path

import numpy as np

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)

import kerrspec.classify
import kerrspec.cli
import kerrspec.esqpt
import kerrspec.sweep


def _file_size(args, kwargs, result):
    return Path(result).stat().st_size


# span name -> (modules whose binding is wrapped, attribute, detail of one call);
# a string detail names a Tracer method
TARGETS = {
    "fock.assemble": (
        (kerrspec.sweep, kerrspec.classify), "assemble", lambda a, k, r: r.dim
    ),
    "sectors.split": ((kerrspec.sweep, kerrspec.classify), "split", "_split_detail"),
    "eigensolve.eigen": ((kerrspec.sweep, kerrspec.classify), "eigen", "_eigen_detail"),
    "sweep.run_sweep": (
        (kerrspec.sweep, kerrspec.cli), "run_sweep", lambda a, k, r: len(r.params)
    ),
    "sweep.plan_modulus": ((kerrspec.sweep,), "plan_modulus", None),
    "sweep.sector_levels_at": ((kerrspec.classify,), "sector_levels_at", None),
    "classify.detect_crossings": ((kerrspec.classify,), "detect_crossings", lambda a, k, r: len(r)),
    "classify.track_crossing_location": ((kerrspec.classify,), "track_crossing_location", None),
    "esqpt.gap_curves": ((kerrspec.esqpt,), "gap_curves", None),
    "esqpt.xi_c_max_rate": ((kerrspec.esqpt,), "xi_c_max_rate", None),
    "esqpt.xi_c_linear_extrapolation": ((kerrspec.esqpt,), "xi_c_linear_extrapolation", None),
    "esqpt.xi_c_difference_bound": ((kerrspec.esqpt,), "xi_c_difference_bound", None),
    "esqpt.separatrix_from_estimates": ((kerrspec.esqpt,), "separatrix_from_estimates", None),
    "cli.load_config": ((kerrspec.cli,), "load_config", None),
    "cli.emit_csv": ((kerrspec.cli,), "emit_csv", _file_size),
    "cli.emit_svg": ((kerrspec.cli,), "emit_svg", _file_size),
}

# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "fock.assemble.calls": "count",
    "fock.assemble.self_s": "s",
    "fock.assemble.rows": "count",
    "sectors.split.calls": "count",
    "sectors.split.self_s": "s",
    "sectors.split.blocks": "count",
    "eigensolve.eigen.calls": "count",
    "eigensolve.eigen.self_s": "s",
    "eigensolve.eigen.lapack_calls": "count",
    "eigensolve.eigen.diag_calls": "count",
    "eigensolve.eigen.dim_sum": "count",
    "eigensolve.eigen.dim2_sum": "count",
    "eigensolve.eigen.probe_share": "ratio",
    "sweep.run_sweep.points": "count",
    "sweep.run_sweep.self_s": "s",
    "sweep.plan_modulus.s": "s",
    "sweep.sector_levels_at.calls": "count",
    "sweep.sector_levels_at.self_s": "s",
    "classify.detect_crossings.self_s": "s",
    "classify.detect_crossings.events": "count",
    "classify.resolves_per_event": "ratio",
    "classify.track_crossing_location.self_s": "s",
    "classify.track.eigen_calls": "count",
    "esqpt.analysis_s": "s",
    "cli.load_config.s": "s",
    "cli.emit_csv.self_s": "s",
    "cli.emit_csv.bytes": "bytes",
    "cli.emit_svg.self_s": "s",
    "cli.emit_svg.bytes": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    """Wraps the TARGETS while active; ``spans[i] = (name, start, end, parent, detail)``."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        # {id(block): basis dim} of the last two splits: a sweep point splits
        # its main and its probe matrix, then solves the blocks of both
        self._block_basis: deque[dict[int, int]] = deque(maxlen=2)

    def __enter__(self) -> "Tracer":
        for name, (modules, attr, detail) in TARGETS.items():
            if isinstance(detail, str):
                detail = getattr(self, detail)
            for module in modules:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, detail))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, detail):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if detail is not None:
                spans[index] = (name, start, end, parent, detail(args, kwargs, result))
            return result

        return wrapper

    def _split_detail(self, args, kwargs, result):
        """Number of blocks; remembers which basis each block came from."""
        matrix = args[0] if args else kwargs["matrix"]
        self._block_basis.appendleft({id(s.block): matrix.dim for s in result.sectors})
        return len(result.sectors)

    def _eigen_detail(self, args, kwargs, result):
        """(block dim, diagonal shortcut instead of LAPACK, dim of the basis split into it)."""
        m = args[0] if args else kwargs["matrix"]
        diag = m.bandwidth == 0 or all(len(d) == 0 or not np.any(d) for d in m.diagonals[1:])
        basis = next((b[id(m)] for b in self._block_basis if id(m) in b), None)
        return (m.dim, diag, basis)

    def write(self, path: Path) -> None:
        """All spans as JSON lines, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, detail in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, detail]) + "\n")


def layer_metrics(spans, overhead_s: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced execution.

    An eigen block belongs to the probe basis when the basis it was split
    from is larger than the smallest basis solved under the same parent span
    (a sweep solves main and probe blocks; a re-solve only main ones).
    """
    n = len(spans)
    child = [0.0] * n
    main_basis: dict[int, int] = {}
    for name, start, end, parent, detail in spans:
        if parent >= 0:
            child[parent] += end - start
        if name == "eigensolve.eigen" and detail[2] is not None:
            main_basis[parent] = min(detail[2], main_basis.get(parent, detail[2]))
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    detail_sum: dict[str, float] = {}
    eigen = {"lapack": 0, "diag": 0, "dim": 0, "dim2": 0, "probe_s": 0.0, "track": 0}
    esqpt_s = 0.0
    for i, (name, start, end, parent, detail) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        incl_s[name] = incl_s.get(name, 0.0) + dur
        if name == "eigensolve.eigen":
            dim, diag, basis = detail
            eigen["diag" if diag else "lapack"] += 1
            eigen["dim"] += dim
            eigen["dim2"] += dim * dim
            if basis is not None and basis > main_basis[parent]:
                eigen["probe_s"] += dur - child[i]
            if _has_ancestor(spans, parent, "classify.track_crossing_location"):
                eigen["track"] += 1
        elif detail is not None:
            detail_sum[name] = detail_sum.get(name, 0) + detail
        if name.startswith("esqpt.") and (
            parent < 0 or not spans[parent][0].startswith("esqpt.")
        ):
            esqpt_s += dur

    events = detail_sum.get("classify.detect_crossings", 0)
    resolves = calls.get("sweep.sector_levels_at", 0)
    eigen_self = self_s.get("eigensolve.eigen", 0.0)
    out = {
        "fock.assemble.calls": calls.get("fock.assemble", 0),
        "fock.assemble.self_s": self_s.get("fock.assemble", 0.0),
        "fock.assemble.rows": detail_sum.get("fock.assemble", 0),
        "sectors.split.calls": calls.get("sectors.split", 0),
        "sectors.split.self_s": self_s.get("sectors.split", 0.0),
        "sectors.split.blocks": detail_sum.get("sectors.split", 0),
        "eigensolve.eigen.calls": calls.get("eigensolve.eigen", 0),
        "eigensolve.eigen.self_s": eigen_self,
        "eigensolve.eigen.lapack_calls": eigen["lapack"],
        "eigensolve.eigen.diag_calls": eigen["diag"],
        "eigensolve.eigen.dim_sum": eigen["dim"],
        "eigensolve.eigen.dim2_sum": eigen["dim2"],
        "eigensolve.eigen.probe_share": eigen["probe_s"] / eigen_self if eigen_self else 0.0,
        "sweep.run_sweep.points": detail_sum.get("sweep.run_sweep", 0),
        "sweep.run_sweep.self_s": self_s.get("sweep.run_sweep", 0.0),
        "sweep.plan_modulus.s": incl_s.get("sweep.plan_modulus", 0.0),
        "sweep.sector_levels_at.calls": resolves,
        "sweep.sector_levels_at.self_s": self_s.get("sweep.sector_levels_at", 0.0),
        "classify.detect_crossings.self_s": self_s.get("classify.detect_crossings", 0.0),
        "classify.detect_crossings.events": events,
        "classify.resolves_per_event": resolves / events if events else 0.0,
        "classify.track_crossing_location.self_s": self_s.get(
            "classify.track_crossing_location", 0.0
        ),
        "classify.track.eigen_calls": eigen["track"],
        "esqpt.analysis_s": esqpt_s,
        "cli.load_config.s": incl_s.get("cli.load_config", 0.0),
        "cli.emit_csv.self_s": self_s.get("cli.emit_csv", 0.0),
        "cli.emit_csv.bytes": detail_sum.get("cli.emit_csv", 0),
        "cli.emit_svg.self_s": self_s.get("cli.emit_svg", 0.0),
        "cli.emit_svg.bytes": detail_sum.get("cli.emit_svg", 0),
        "trace.overhead_s": overhead_s,
    }
    assert set(out) == set(LAYER_METRICS)
    return out


def _has_ancestor(spans, index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
