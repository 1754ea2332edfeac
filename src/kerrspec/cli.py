"""Batch front end: JSON run configurations to CSV tables and SVG plots.

One process runs one command (spectrum, sweep, crossings, esqpt, casimir,
track) described by a strictly validated JSON document.  CSV is the data
contract: fixed column order, 12 significant digits, sweep rows sorted by
(parameter, sector, level) and spectrum rows by energy, byte-identical
across reruns; SVG output is a self-contained convenience rendering of the
same curves.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .classify import (
    DEFAULT_MAX_LEVELS,
    CrossingEvent,
    LevelPair,
    TrackedCrossing,
    check_track_pair,
    detect_crossings,
    track_crossing_location,
)
from .eigensolve import DEFAULT_N_MAX, DEFAULT_TOL_CONV, EigenSolverError, check_basis
from .esqpt import (
    CriticalPointEstimate,
    SeparatrixModel,
    check_gap_sweep,
    gap_curves,
    separatrix_from_estimates,
    xi_c_difference_bound,
    xi_c_linear_extrapolation,
    xi_c_max_rate,
)
from .fock import (
    COUPLING_FIELDS,
    COUPLING_KINDS,
    HamiltonianSpec,
    HigherOrderCorrections,
    NumericFailure,
)
from .sweep import (
    SpectrumGrid,
    SweepPlan,
    converged_spectrum,
    run_sweep,
)
from .u2 import CasimirLevel, U2Rep, casimir_spectrum

__all__ = ["ConfigError", "RunConfig", "load_config", "run", "emit_csv", "emit_svg", "main"]

SCHEMA_VERSION = 1

# coloring -> one color per residue mod d, for its divisor d; _ALL_COLOR draws
# the class "all" of a sector whose modulus is coprime to d (see _color_class)
_PALETTES = {
    "parity": {"even": "#e66101", "odd": "#1f78b4"},
    "mod3": {"0": "#1b7837", "1": "#5aae61", "2": "#a6dba0"},
    "mod4": {"0": "#08519c", "1": "#cb181d", "2": "#6baed6", "3": "#fb6a4a"},
}
COLORINGS = tuple(_PALETTES)
_ALL_COLOR = "#4d4d4d"


# SVG canvas and frame margin, in px; the viewBox lets a viewer rescale the drawing.
SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 960, 640, 70

# Largest grid a configuration may ask for; every point is a full eigensolve.
MAX_GRID_POINTS = 1_000_000

# Largest casimir.N: its two tridiagonal blocks take about 1 s to solve there.
MAX_CASIMIR_N = 10_000

# Largest numeric.n_max and n_probe: a basis this size already takes minutes per
# grid point, and a far larger one fails allocating its arrays.
MAX_BASIS = 100_000


class ConfigError(ValueError):
    """The run configuration is malformed or self-inconsistent."""


@dataclass(frozen=True)
class GridConfig:
    varying: str
    start: float
    stop: float
    step: float

    def values(self) -> tuple[float, ...]:
        """The grid points; a grid above MAX_GRID_POINTS points is refused before it is built."""
        span = (self.stop - self.start) / self.step
        if span >= MAX_GRID_POINTS - 0.5:  # also an infinite span
            raise ConfigError(f"grid asks for more than {MAX_GRID_POINTS} points")
        n = round(max(span, -1.0))
        if n < 1 or abs(self.start + n * self.step - self.stop) > 1e-9 * max(
            1.0, abs(self.stop)
        ):
            raise ConfigError("grid step does not evenly divide the range")
        return tuple(self.start + i * self.step for i in range(n + 1))


@dataclass(frozen=True)
class SvgStyle:
    max_levels: int | None = None
    y_min: float | None = None
    y_max: float | None = None
    separatrices: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # a span below the smallest normal float overflows the pixel scale
        if None not in (self.y_min, self.y_max) and not (
            sys.float_info.min <= self.y_max - self.y_min < math.inf
        ):
            raise ValueError("y_min must be below y_max, a finite and normal range apart")
        if self.max_levels is not None and self.max_levels < 1:
            raise ValueError("max_levels must be at least 1")
        for kind in self.separatrices:
            SeparatrixModel(kind)


@dataclass(frozen=True)
class RunConfig:
    command: str
    hamiltonian: HamiltonianSpec
    n_max: int
    n_probe: int
    tol_conv: float
    plan: SweepPlan | None  # the grid of every command that reads one
    coloring: str
    out_dir: str
    formats: tuple[str, ...]
    basename: str | None
    window: tuple[float, float] | None
    svg_style: SvgStyle
    v_max: int
    casimir_N: int
    track_eta0: int
    track_pair: LevelPair
    crossings_max_levels: int


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _as_number(value, what: str) -> float:
    """A finite JSON number as a float; NaN and Infinity parse but are never valid input."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{what} must be finite")
    return float(value)


def _as_count(value, what: str) -> int:
    """A non-negative integer; an integral float such as 40.0 is accepted."""
    _as_number(value, what)
    if value < 0 or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be a non-negative integer")
    return int(value)


def _integer(section: dict, key: str, default, where: str) -> int:
    return _as_count(section.get(key, default), f"{where}.{key}")


def load_config(path: str | Path) -> RunConfig:
    """Parse and strictly validate a JSON run configuration.

    Every check a configuration can fail is made here, so running the result
    never raises ConfigError.  A section the command does not read (see
    ``_COMMANDS``) is refused, so no setting is ever silently ignored.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    version = raw.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}")
    sections = _COMMANDS[command][0]
    unread = sorted(set(raw) - {"schema_version", "command", "output", *sections})
    if unread:
        raise ConfigError(f"the {command} command does not read section(s) {unread}")

    ham = raw.get("hamiltonian", {})
    _check_keys(ham, {*COUPLING_FIELDS, "higher_order"}, "hamiltonian")
    higher = None
    if "higher_order" in ham:
        ho = ham["higher_order"]
        _check_keys(
            ho, {f.name for f in fields(HigherOrderCorrections)}, "hamiltonian.higher_order"
        )
        higher = HigherOrderCorrections(
            **{k: _as_number(v, f"higher_order.{k}") for k, v in ho.items()}
        )
    spec = HamiltonianSpec(
        **{f: _as_number(v, f"hamiltonian.{f}") for f, v in ham.items() if f != "higher_order"},
        higher=higher,
    )

    num = raw.get("numeric", {})
    _check_keys(num, {"n_max", "n_probe", "tol_conv"}, "numeric")
    n_max = _integer(num, "n_max", DEFAULT_N_MAX, "numeric")
    n_probe = _as_count(num["n_probe"], "numeric.n_probe") if "n_probe" in num else None
    tol_conv = _as_number(num.get("tol_conv", DEFAULT_TOL_CONV), "numeric.tol_conv")
    try:
        n_probe = check_basis(n_max, n_probe, tol_conv)
    except ValueError as exc:
        raise ConfigError(f"numeric.{exc}") from exc
    for key, n in (("n_max", n_max), ("n_probe", n_probe)):
        if n > MAX_BASIS:
            raise ConfigError(f"numeric.{key}={n} is above the {MAX_BASIS}-state basis cap")

    coloring = raw.get("coloring", "parity")
    _check_coloring(coloring)

    out = raw.get("output", {})
    _check_keys(out, {"directory", "formats", "basename"}, "output")
    formats = out.get("formats", ["csv"])
    if not (isinstance(formats, list) and formats and all(f in ("csv", "svg") for f in formats)):
        raise ConfigError("output.formats must be a non-empty subset of ['csv', 'svg']")
    if "svg" in formats and "svg" not in sections:
        raise ConfigError(f"output.formats: the {command} command writes no svg")
    for key in ("directory", "basename"):
        if key in out and not isinstance(out[key], str):
            raise ConfigError(f"output.{key} must be a string")
        if "\0" in out.get(key, ""):
            raise ConfigError(f"output.{key} must not contain a NUL")
    basename = out.get("basename")
    if basename is not None and (basename in ("", ".", "..") or Path(basename).name != basename):
        raise ConfigError(f"output.basename must be a file name, not {basename!r}")

    window = None
    if "window" in raw:
        w = raw["window"]
        if not (isinstance(w, list) and len(w) == 2):
            raise ConfigError("window must be a [low, high] pair")
        window = (_as_number(w[0], "window[0]"), _as_number(w[1], "window[1]"))
        if window[0] > window[1]:
            raise ConfigError("window must be a [low, high] pair with low <= high")

    sv = raw.get("svg", {})
    _check_keys(sv, {f.name for f in fields(SvgStyle)}, "svg")
    seps = sv.get("separatrices", [])
    if not isinstance(seps, list):
        raise ConfigError("svg.separatrices must be a list")
    settings = {
        k: _as_number(v, f"svg.{k}") if k in ("y_min", "y_max") else _as_count(v, f"svg.{k}")
        for k, v in sv.items()
        if k != "separatrices"
    }
    try:
        style = SvgStyle(**settings, separatrices=tuple(seps))
    except ValueError as exc:
        raise ConfigError(f"svg: {exc}") from exc

    esq, cas, trk, cro = (raw.get(s, {}) for s in ("esqpt", "casimir", "track", "crossings"))
    _check_keys(esq, {"v_max"}, "esqpt")
    _check_keys(cas, {"N"}, "casimir")
    _check_keys(trk, {"eta0", "pair"}, "track")
    _check_keys(cro, {"max_levels"}, "crossings")
    casimir_N = _integer(cas, "N", 50, "casimir")
    if not 1 <= casimir_N <= MAX_CASIMIR_N:
        raise ConfigError(f"casimir.N must be in 1..{MAX_CASIMIR_N}")
    pair = trk.get("pair", [0, 0, 1, 0])
    if not (isinstance(pair, list) and len(pair) == 4):
        raise ConfigError("track.pair must be [residue_a, index_a, residue_b, index_b]")
    pair = LevelPair(*(_as_count(x, "track.pair entry") for x in pair))
    v_max = _integer(esq, "v_max", 12, "esqpt")
    crossings_max_levels = _integer(cro, "max_levels", DEFAULT_MAX_LEVELS, "crossings")
    # at 0 there is nothing to estimate (pairs v >= 1) or scan
    for key, n in (("esqpt.v_max", v_max), ("crossings.max_levels", crossings_max_levels)):
        if n == 0:
            raise ConfigError(f"{key} must be at least 1")

    # checks that join sections
    plan = None
    if "grid" in sections:
        if "grid" not in raw:
            raise ConfigError(f"the {command} command requires a grid section")
        g = raw["grid"]
        keys = [f.name for f in fields(GridConfig)]
        _check_keys(g, set(keys), "grid")
        for key in keys:
            if key not in g:
                raise ConfigError(f"grid.{key} is required")
        grid = GridConfig(g["varying"], *(_as_number(g[k], f"grid.{k}") for k in keys[1:]))
        if grid.step <= 0:
            raise ConfigError("grid.step must be positive")
        if grid.stop <= grid.start:
            raise ConfigError("grid.stop must be above grid.start")
        try:
            plan = SweepPlan(grid.varying, grid.values(), spec, n_max, n_probe, tol_conv)
            if "esqpt" in sections:
                check_gap_sweep(plan, v_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "track" in sections:
        if plan.varying not in _TRACKED:
            raise ConfigError(
                f"track grid must vary one of {sorted(_TRACKED)}, not {plan.varying!r}"
            )
        # track solves for eta, and its grid sets the coupling field
        taken = [f"hamiltonian.{key}" for key in ("eta", plan.varying) if key in ham]
        if taken:
            raise ConfigError(f"the track command sets {' and '.join(taken)} itself")
        try:
            check_track_pair(pair, _TRACKED[plan.varying], n_max, spec)
        except ValueError as exc:
            raise ConfigError(f"track.{exc}") from exc

    return RunConfig(
        command=command,
        hamiltonian=spec,
        n_max=n_max,
        n_probe=n_probe,
        tol_conv=tol_conv,
        plan=plan,
        coloring=coloring,
        out_dir=out.get("directory", "."),
        formats=tuple(formats),
        basename=basename,
        window=window,
        svg_style=style,
        v_max=v_max,
        casimir_N=casimir_N,
        track_eta0=_integer(trk, "eta0", 0, "track"),
        track_pair=pair,
        crossings_max_levels=crossings_max_levels,
    )


def _check_coloring(coloring: str) -> None:
    if coloring not in COLORINGS:
        raise ConfigError(f"coloring must be one of {COLORINGS}, got {coloring!r}")


def _color_class(coloring: str, residue: int, modulus: int) -> str:
    """The class of sector ``residue``: its residue mod gcd(d, modulus), d the
    coloring's divisor (MOD_ALL is 0, so gcd(d, 0) = d), or "all" where the gcd is 1."""
    _check_coloring(coloring)
    g = math.gcd(len(_PALETTES[coloring]), modulus)
    if g == 1:
        return "all"
    r = residue % g
    if coloring == "parity":
        return "even" if r == 0 else "odd"
    return str(r)


_GRID_HEADER = [
    "param", "sector_residue", "level_index", "energy",
    "excitation_energy", "converged", "color_class",
]


def _write_rows(path: Path, header: list[str], template: str, rows) -> None:
    """The header, then one line ``template % row`` per row, written as they come."""
    line = template + "\n"
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % row)


# record type -> (CSV header, row template, row of one record): %.12g for
# reals, %d for integers and flags, %s for names; a lost crossing's eta_star
# is an empty field
_TABLES = {
    CrossingEvent: (
        ["kind", "param_value", "residue_a", "index_a", "residue_b", "index_b", "min_gap"],
        "%s,%.12g,%d,%d,%d,%d,%.12g",
        lambda e: (e.kind, e.param_value, *e.level_pair, e.min_gap),
    ),
    CriticalPointEstimate: (
        ["v", "method", "xi_c", "E_c", "rel_dev_sq"],
        "%d,%s,%.12g,%.12g,%.12g",
        lambda e: (*e, e.rel_dev),
    ),
    CasimirLevel: (["v", "pi_prime", "casimir_value"], "%d,%d,%.12g", tuple),
    TrackedCrossing: (
        ["coupling_value", "eta_star", "found", "gap", "converged"],
        "%.12g,%s,%d,%.12g,%d",
        lambda e: (
            e.coupling_value, "" if e.eta_star is None else "%.12g" % e.eta_star, e.found, e.gap,
            e.converged,
        ),
    ),
}


def _write_table(path: str | Path, kind: type, records) -> Path:
    """A table of ``kind`` records; its header is written even when it is empty."""
    path = Path(path)
    header, template, row = _TABLES[kind]
    _write_rows(path, header, template, map(row, records))
    return path


def emit_csv(
    grid: SpectrumGrid,
    path: str | Path,
    coloring: str = "parity",
    max_levels: int | None = None,
) -> Path:
    """Write a sweep grid as deterministic CSV, one grid point at a time.

    Rows are in (param, sector, level) order, with all levels of each sector
    or the first ``max_levels``, which must be None or at least 1.  Each row
    carries the absolute energy, the excitation energy E - E0 and the sector's
    color class (see :func:`_color_class`: ``all`` where the coloring's
    divisor is coprime to the modulus, as under parity for a xi3 or xi + xi3
    sweep).  Each sector's rows of one grid point are one ``%`` template,
    built once with its level fields and color class; every real is
    ``%.12g``, the parameter formatted once per point, and the flag is
    ``%d`` of a bool.
    """
    if max_levels is not None and max_levels < 1:
        raise ValueError("max_levels must be at least 1")
    path = Path(path)
    ground = grid.ground_energy.tolist()
    sectors = []
    for r in grid.residues:
        excitation = grid.curves[r][:, :max_levels]
        color_class = _color_class(coloring, r, grid.plan.modulus)
        levels = excitation.shape[1]
        template = "".join(
            f"%s,{r},{lvl},%.12g,%.12g,%d,{color_class}\n" for lvl in range(levels)
        )
        # the template's values, four per row: param, energy, excitation, flag
        values = [None] * (4 * levels)
        energy = np.empty(levels)
        sectors.append((template, values, energy, excitation, grid.converged[r][:, :max_levels]))
    with path.open("w") as fh:
        fh.write(",".join(_GRID_HEADER) + "\n")
        for g, param in enumerate(grid.params.tolist()):
            p = f"{param:.12g}"
            for template, values, energy, excitation, flags in sectors:
                np.add(excitation[g], ground[g], out=energy)
                values[0::4] = [p] * len(energy)
                values[1::4] = energy.tolist()
                values[2::4] = excitation[g].tolist()
                values[3::4] = flags[g].tolist()
                fh.write(template % tuple(values))
    return path


# At most this many ticks are generated on one axis; about 5 to 11 are drawn.
_MAX_TICKS = 64


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Multiples of a 1, 2, 2.5 or 5 step in [lo, hi], about five of them, rounded to 12 decimals.

    The i-th tick is generated by index, so a range narrower than a few ulps
    of its ends (where adding the step would not move a running sum) gives
    a bounded list: a repeat of the previous tick is dropped.  A range too
    narrow for a normal float step gets the one tick ``lo``.
    """
    raw = (hi - lo) / 5
    if not sys.float_info.min <= raw < math.inf:  # also hi <= lo
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
    first = math.ceil(lo / step) * step
    ticks: list[float] = []
    for i in range(_MAX_TICKS):
        t = first + i * step
        if t > hi + 1e-9 * step:
            break
        t = round(t, 12)
        if not ticks or t != ticks[-1]:
            ticks.append(t)
    return ticks


def emit_svg(grid: SpectrumGrid, style: SvgStyle, path: str | Path, coloring: str = "parity") -> Path:
    """Self-contained SVG: one polyline per level curve plus optional overlays.

    Like :func:`emit_csv`, it writes as it goes: the frame, then each level
    curve from one column of the grid at a time, then the overlays, so the
    document is never held in memory.  A y range so narrow that some curve's
    pixel coordinate leaves the single-precision range (about 3.4e38, as far
    as SVG 1.1 requires a reader to parse numbers) raises NumericFailure
    before the file is opened.
    """
    path = Path(path)
    w, h, m = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN
    x = grid.params
    x_lo, x_hi = float(x[0]), float(x[-1])

    blocks = []  # (color, the sector's plotted level curves as columns)
    for r in grid.residues:
        color_class = _color_class(coloring, r, grid.plan.modulus)  # refuses an unknown coloring
        color = _PALETTES[coloring].get(color_class, _ALL_COLOR)
        blocks.append((color, grid.curves[r][:, :style.max_levels]))

    y_lo = style.y_min if style.y_min is not None else min(float(b.min()) for _, b in blocks)
    y_hi = style.y_max if style.y_max is not None else max(float(b.max()) for _, b in blocks)
    if y_hi <= y_lo:  # a flat or inverted range, e.g. a y_max below every level
        y_lo, y_hi = min(y_lo, y_hi) - 1.0, max(y_lo, y_hi) + 1.0

    # sx/sy take scalars (ticks) and whole arrays (polylines); element-wise
    # IEEE operations round as the scalar expressions do, so a coordinate
    # prints the same either way
    def sx(v):
        return m + (v - x_lo) / (x_hi - x_lo) * (w - 2 * m)

    def sy(v):
        return h - m - (v - y_lo) / (y_hi - y_lo) * (h - 2 * m)

    # one template for every polyline's points: the x fields are shared
    points = " ".join([f"{px:.2f},%.2f" for px in sx(x).tolist()])

    overlays = []  # evaluated before the file is opened, so no error leaves half a file
    with np.errstate(over="ignore"):  # an overflow is refused below
        for kind in style.separatrices:
            model = SeparatrixModel(kind)
            # the models depend on eta and xi only; other swept couplings stay fixed
            params = {"eta": grid.plan.fixed.eta, "xi": grid.plan.fixed.xi}
            if grid.plan.varying in params:
                params[grid.plan.varying] = x
            ys = model.evaluate(**params)
            # a model that does not depend on the varying parameter is a flat line
            overlays.append(sy(np.broadcast_to(ys, x.shape)))
        # sy is monotone, so each sector's lowest and highest level bound its
        # curves' coordinates, which grow huge or overflow where the y range is
        # far narrower than their distance from it
        ends = sy(np.array([v for _, b in blocks for v in (b.min(), b.max())]))
    limit = float(np.finfo(np.float32).max)
    if not all((np.abs(v) <= limit).all() for v in (ends, *overlays)):  # NaN fails too
        raise NumericFailure(
            f"svg y range {y_lo!r} to {y_hi!r} is too narrow: pixel coordinates exceed {limit:.2g}"
        )
    overlays = [points % tuple(v.tolist()) for v in overlays]

    with path.open("w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n'
            f'<rect width="{w}" height="{h}" fill="white"/>\n'
            f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="black"/>\n'
            f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>\n'
        )
        for t in _nice_ticks(x_lo, x_hi):
            px = sx(t)
            fh.write(
                f'<line x1="{px:.2f}" y1="{h - m}" x2="{px:.2f}" y2="{h - m + 6}" stroke="black"/>\n'
                f'<text x="{px:.2f}" y="{h - m + 22}" font-size="13" text-anchor="middle">{t:.6g}</text>\n'
            )
        for t in _nice_ticks(y_lo, y_hi):
            py = sy(t)
            fh.write(
                f'<line x1="{m - 6}" y1="{py:.2f}" x2="{m}" y2="{py:.2f}" stroke="black"/>\n'
                f'<text x="{m - 10}" y="{py + 4:.2f}" font-size="13" text-anchor="end">{t:.6g}</text>\n'
            )
        fh.write(
            f'<clipPath id="frame"><rect x="{m}" y="{m}" width="{w - 2 * m}" '
            f'height="{h - 2 * m}"/></clipPath>\n'
        )
        for color, block in blocks:
            polyline = (
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                'stroke-width="1.2" clip-path="url(#frame)"/>\n'
            )
            for col in range(block.shape[1]):
                fh.write(polyline % tuple(sy(block[:, col]).tolist()))
        for pts in overlays:
            fh.write(
                f'<polyline points="{pts}" fill="none" stroke="black" '
                f'stroke-width="1.4" stroke-dasharray="8 5" clip-path="url(#frame)"/>\n'
            )
        fh.write("</svg>\n")
    return path


def _require_converged(flags: list[np.ndarray], cfg: RunConfig) -> None:
    """Refuse a result whose emitted levels (for crossings, its scanned ones) are all unconverged.

    Such a result is truncation artefact only: the basis is too small for the
    couplings, or the spectrum is not bounded below.  An empty result (nothing
    in the window) is not refused.
    """
    total = sum(f.size for f in flags)
    if total and not any(f.any() for f in flags):
        raise EigenSolverError(
            f"none of the {total} emitted levels converged between n_max={cfg.n_max} "
            f"and n_probe={cfg.n_probe} (raise numeric.n_max; if no basis converges, "
            "the spectrum may not be bounded below)"
        )


def _spectrum(cfg: RunConfig, csv_path: Path) -> None:
    spectrum = converged_spectrum(cfg.hamiltonian, cfg.n_max, cfg.n_probe, cfg.tol_conv, cfg.window)
    _require_converged([spectrum.converged], cfg)
    rows = (
        (cfg.hamiltonian.eta, r, i, e, x, c, _color_class(cfg.coloring, r, spectrum.modulus))
        for i, (e, x, r, c) in enumerate(
            zip(spectrum.energies, spectrum.excitations, spectrum.residues, spectrum.converged)
        )
    )
    _write_rows(csv_path, _GRID_HEADER, "%.12g,%d,%d,%.12g,%.12g,%d,%s", rows)


def _sweep(cfg: RunConfig, csv_path: Path) -> None:
    grid = run_sweep(cfg.plan)
    max_levels = cfg.svg_style.max_levels
    _require_converged([grid.converged[r][:, :max_levels] for r in grid.residues], cfg)
    # the SVG first: it refuses a y range that overflows its pixel scale before
    # it opens its file, so that refusal leaves no output
    if "svg" in cfg.formats:
        emit_svg(grid, cfg.svg_style, csv_path.with_suffix(".svg"), cfg.coloring)
    if "csv" in cfg.formats:
        emit_csv(grid, csv_path, cfg.coloring, max_levels)


def _crossings(cfg: RunConfig, csv_path: Path) -> None:
    grid = run_sweep(cfg.plan)
    max_levels = cfg.crossings_max_levels
    _require_converged([grid.converged[r][:, :max_levels] for r in grid.residues], cfg)
    _write_table(csv_path, CrossingEvent, detect_crossings(grid, max_levels))


def _esqpt(cfg: RunConfig, csv_path: Path) -> None:
    curves = gap_curves(run_sweep(cfg.plan), cfg.v_max)
    estimators = (xi_c_max_rate, xi_c_linear_extrapolation, xi_c_difference_bound)
    # v >= 1: the v = 0 pair never opens a usable gap head
    estimates = [est(curve) for curve in curves[1:] for est in estimators]
    _write_table(csv_path, CriticalPointEstimate, separatrix_from_estimates(estimates))


# command -> (the top-level sections it reads besides schema_version, command and
# output; its runner, which writes the CSV path it is given and any file beside
# it).  A section is listed only when it can change that command's output; any
# other section is refused, a grid is required exactly where it is listed, and
# only a command that reads svg may write it.
_COMMANDS = {
    "spectrum": (("hamiltonian", "numeric", "window", "coloring"), _spectrum),
    "sweep": (("hamiltonian", "numeric", "grid", "coloring", "svg"), _sweep),
    "crossings": (("hamiltonian", "numeric", "grid", "crossings"), _crossings),
    "esqpt": (("hamiltonian", "numeric", "grid", "esqpt"), _esqpt),
    "casimir": (("casimir",), lambda cfg, csv_path: _write_table(
        csv_path, CasimirLevel, casimir_spectrum(U2Rep(cfg.casimir_N)))),
    "track": (("hamiltonian", "numeric", "grid", "track"), lambda cfg, csv_path: _write_table(
        csv_path, TrackedCrossing, track_crossing_location(
            cfg.track_pair, _TRACKED[cfg.plan.varying], cfg.plan.grid, cfg.track_eta0,
            cfg.n_max, cfg.n_probe, cfg.tol_conv, cfg.hamiltonian))),
}
COMMANDS = tuple(_COMMANDS)

# grid field -> the coupling that track follows along it
_TRACKED = {field: kind for kind, field in COUPLING_KINDS.items()}


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def run(config: RunConfig) -> int:
    """Execute a configuration from :func:`load_config`; returns the process exit status.

    A numeric failure exits 3 and an I/O error 4; any other exception is a
    defect, not a property of the configuration, and propagates.  A warning
    that the command raises, and the caller's filters let through, is printed
    to stderr as one line, ``warning: <category>: <message>``.
    """
    try:
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with warnings.catch_warnings():  # restores the caller's showwarning
            warnings.showwarning = _warning_line
            runner = _COMMANDS[config.command][1]
            runner(config, out_dir / f"{config.basename or config.command}.csv")
    except (NumericFailure, EigenSolverError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kerrspec",
        description="Sector-resolved Kerr-oscillator spectra, crossings, and "
        "phase-transition estimators from a JSON run configuration.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument(
        "--threads",
        type=int,
        default=0,
        help="accepted and checked (not negative) but never changes results: sweeps run "
        "in one thread, as scipy's LAPACK wrappers hold the GIL",
    )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.threads < 0:
            raise ConfigError(f"threads must be >= 0, got {args.threads}")
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 4
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
