"""Batch front end: JSON run configurations to CSV tables and SVG plots.

One process runs one command (spectrum, sweep, crossings, esqpt, casimir,
track) described by a strictly validated JSON document.  CSV is the data
contract: fixed column order, 12 significant digits, rows sorted by
(parameter, sector, level), byte-identical across reruns; SVG output is a
self-contained convenience rendering of the same curves.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classify import (
    COUPLING_KINDS,
    DEFAULT_TOL_DEG,
    CrossingEvent,
    LevelPair,
    TrackedCrossing,
    detect_crossings,
    track_crossing_location,
)
from .eigensolve import (
    DEFAULT_N_MAX,
    DEFAULT_N_PROBE,
    DEFAULT_TOL_CONV,
    ConvergedSpectrum,
    EigenSolverError,
    converged_spectrum,
)
from .esqpt import (
    SeparatrixModel,
    SeparatrixPoint,
    gap_curves,
    separatrix_from_estimates,
    xi_c_difference_bound,
    xi_c_linear_extrapolation,
    xi_c_max_rate,
)
from .fock import HamiltonianSpec, HigherOrderCorrections
from .sectors import MOD_ALL
from .sweep import SpectrumGrid, SweepPlan, run_sweep
from .u2 import CasimirLevel, U2Rep, casimir_spectrum

__all__ = ["ConfigError", "RunConfig", "load_config", "run", "emit_csv", "emit_svg", "main"]

SCHEMA_VERSION = 1
COMMANDS = ("spectrum", "sweep", "crossings", "esqpt", "casimir", "track")
COLORINGS = ("parity", "mod3", "mod4", "mod2x2")

_PALETTES = {
    "parity": {"even": "#e66101", "odd": "#1f78b4"},
    "mod2x2": {"even": "#e66101", "odd": "#1f78b4"},
    "mod3": {"0": "#1b7837", "1": "#5aae61", "2": "#a6dba0"},
    "mod4": {"0": "#08519c", "1": "#cb181d", "2": "#6baed6", "3": "#fb6a4a"},
}


# Largest grid a configuration may ask for; every point is a full eigensolve.
MAX_GRID_POINTS = 1_000_000


class ConfigError(ValueError):
    """The run configuration is malformed or self-inconsistent."""


@dataclass(frozen=True)
class GridConfig:
    varying: str
    start: float
    stop: float
    step: float

    def steps(self) -> int:
        """Steps from start to stop, rounded; refuses grids above MAX_GRID_POINTS points."""
        span = (self.stop - self.start) / self.step
        if span >= MAX_GRID_POINTS - 0.5:  # also an infinite span
            raise ConfigError(f"grid asks for more than {MAX_GRID_POINTS} points")
        return round(max(span, -1.0))

    def values(self) -> tuple[float, ...]:
        n = self.steps()
        if n < 1 or abs(self.start + n * self.step - self.stop) > 1e-9 * max(
            1.0, abs(self.stop)
        ):
            raise ConfigError("grid step does not evenly divide the range")
        return tuple(self.start + i * self.step for i in range(n + 1))


@dataclass(frozen=True)
class SvgStyle:
    width: int = 960
    height: int = 640
    margin: int = 70
    max_levels: int | None = None
    y_min: float | None = None
    y_max: float | None = None
    separatrices: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    command: str
    hamiltonian: HamiltonianSpec = field(default_factory=HamiltonianSpec)
    n_max: int = DEFAULT_N_MAX
    n_probe: int = DEFAULT_N_PROBE
    tol_conv: float = DEFAULT_TOL_CONV
    tol_deg: float = DEFAULT_TOL_DEG
    grid: GridConfig | None = None
    normalize: str = "excitation"
    coloring: str = "parity"
    out_dir: str = "."
    formats: tuple[str, ...] = ("csv",)
    basename: str | None = None
    window: tuple[float, float] | None = None
    svg_style: SvgStyle = field(default_factory=SvgStyle)
    v_max: int = 12
    casimir_N: int = 50
    track_coupling: str = "P2"
    track_eta0: int = 0
    track_pair: tuple[int, int, int, int] = (0, 0, 1, 0)
    crossings_max_levels: int = 12
    threads: int = 1


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _as_number(value, what: str):
    """A finite JSON number; NaN and Infinity parse but are never valid input."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{what} must be finite")
    return value


def _as_count(value, what: str) -> int:
    """A non-negative integer; an integral float such as 40.0 is accepted."""
    _as_number(value, what)
    if value < 0 or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be a non-negative integer")
    return int(value)


def _number(section: dict, key: str, default, where: str):
    return _as_number(section.get(key, default), f"{where}.{key}")


def _integer(section: dict, key: str, default, where: str) -> int:
    return _as_count(section.get(key, default), f"{where}.{key}")


def load_config(path: str | Path) -> RunConfig:
    """Parse and strictly validate a JSON run configuration."""
    try:
        raw = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    _check_keys(
        raw,
        {
            "schema_version", "command", "hamiltonian", "numeric", "grid",
            "normalize", "coloring", "output", "window", "svg",
            "esqpt", "casimir", "track", "crossings",
        },
        "configuration",
    )
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}")

    ham = raw.get("hamiltonian", {})
    _check_keys(ham, {"eta", "xi", "xi3", "xi4", "xi2p", "higher_order"}, "hamiltonian")
    higher = None
    if "higher_order" in ham:
        ho = ham["higher_order"]
        fields = {
            "detuning3", "kerr3", "squeeze3", "number_squeeze3",
            "detuning4", "kerr4", "cubic4", "quad_squeeze4",
        }
        _check_keys(ho, fields, "hamiltonian.higher_order")
        higher = HigherOrderCorrections(
            **{k: _number(ho, k, 0.0, "higher_order") for k in ho}
        )
    spec = HamiltonianSpec(
        eta=_number(ham, "eta", 0.0, "hamiltonian"),
        xi=_number(ham, "xi", 0.0, "hamiltonian"),
        xi3=_number(ham, "xi3", 0.0, "hamiltonian"),
        xi4=_number(ham, "xi4", 0.0, "hamiltonian"),
        xi2p=_number(ham, "xi2p", 0.0, "hamiltonian"),
        higher=higher,
    )

    num = raw.get("numeric", {})
    _check_keys(num, {"n_max", "n_probe", "tol_conv", "tol_deg"}, "numeric")
    n_max = _integer(num, "n_max", DEFAULT_N_MAX, "numeric")
    n_probe = _integer(num, "n_probe", DEFAULT_N_PROBE, "numeric")
    if "n_probe" not in num and n_max != DEFAULT_N_MAX:
        n_probe = n_max + max(50, n_max // 8)
    if n_probe <= n_max:
        raise ConfigError(f"numeric.n_probe={n_probe} must exceed n_max={n_max}")
    tol_conv = float(_number(num, "tol_conv", DEFAULT_TOL_CONV, "numeric"))
    tol_deg = float(_number(num, "tol_deg", DEFAULT_TOL_DEG, "numeric"))

    grid = None
    if "grid" in raw:
        g = raw["grid"]
        _check_keys(g, {"varying", "start", "stop", "step"}, "grid")
        for key in ("varying", "start", "stop", "step"):
            if key not in g:
                raise ConfigError(f"grid.{key} is required")
        if g["varying"] not in ("eta", "xi", "xi3", "xi4", "xi2p"):
            raise ConfigError(f"grid.varying {g['varying']!r} is not a parameter")
        step = _number(g, "step", None, "grid")
        if step <= 0:
            raise ConfigError("grid.step must be positive")
        grid = GridConfig(
            g["varying"],
            _number(g, "start", None, "grid"),
            _number(g, "stop", None, "grid"),
            step,
        )
        grid.steps()  # an oversized grid is refused before any value is built

    normalize = raw.get("normalize", "excitation")
    if normalize not in ("absolute", "excitation"):
        raise ConfigError("normalize must be 'absolute' or 'excitation'")
    coloring = raw.get("coloring", "parity")
    if coloring not in COLORINGS:
        raise ConfigError(f"coloring must be one of {COLORINGS}")

    out = raw.get("output", {})
    _check_keys(out, {"directory", "formats", "basename"}, "output")
    formats = out.get("formats", ["csv"])
    if not (isinstance(formats, list) and formats and all(f in ("csv", "svg") for f in formats)):
        raise ConfigError("output.formats must be a non-empty subset of ['csv', 'svg']")
    for key in ("directory", "basename"):
        if key in out and not isinstance(out[key], str):
            raise ConfigError(f"output.{key} must be a string")

    window = None
    if "window" in raw:
        w = raw["window"]
        if not (isinstance(w, list) and len(w) == 2):
            raise ConfigError("window must be a [low, high] pair")
        window = (_as_number(w[0], "window[0]"), _as_number(w[1], "window[1]"))

    style = SvgStyle()
    if "svg" in raw:
        sv = raw["svg"]
        _check_keys(
            sv, {"width", "height", "margin", "max_levels", "y_min", "y_max", "separatrices"}, "svg"
        )
        seps = sv.get("separatrices", [])
        if not isinstance(seps, list):
            raise ConfigError("svg.separatrices must be a list")
        for s in seps:
            if s not in SeparatrixModel._KINDS:
                raise ConfigError(f"unknown separatrix kind {s!r}")
        max_levels = _integer(sv, "max_levels", 1, "svg") if "max_levels" in sv else None
        if max_levels == 0:
            raise ConfigError("svg.max_levels must be at least 1")
        style = SvgStyle(
            width=_integer(sv, "width", 960, "svg"),
            height=_integer(sv, "height", 640, "svg"),
            margin=_integer(sv, "margin", 70, "svg"),
            max_levels=max_levels,
            y_min=float(_number(sv, "y_min", 0.0, "svg")) if "y_min" in sv else None,
            y_max=float(_number(sv, "y_max", 0.0, "svg")) if "y_max" in sv else None,
            separatrices=tuple(seps),
        )

    kwargs: dict = {}
    for section, owner in (("esqpt", "esqpt"), ("casimir", "casimir"), ("track", "track"), ("crossings", "crossings")):
        if section in raw and command != owner:
            raise ConfigError(f"section {section!r} only applies to the {owner} command")
    if "esqpt" in raw:
        _check_keys(raw["esqpt"], {"v_max"}, "esqpt")
        kwargs["v_max"] = _integer(raw["esqpt"], "v_max", 12, "esqpt")
    if "casimir" in raw:
        _check_keys(raw["casimir"], {"N"}, "casimir")
        kwargs["casimir_N"] = _integer(raw["casimir"], "N", 50, "casimir")
    if "track" in raw:
        t = raw["track"]
        _check_keys(t, {"coupling", "eta0", "pair"}, "track")
        pair = t.get("pair", [0, 0, 1, 0])
        if not (isinstance(pair, list) and len(pair) == 4):
            raise ConfigError("track.pair must be [residue_a, index_a, residue_b, index_b]")
        coupling = t.get("coupling", "P2")
        if not isinstance(coupling, str) or coupling not in COUPLING_KINDS:
            raise ConfigError(f"track.coupling must be one of {sorted(COUPLING_KINDS)}")
        kwargs.update(
            track_coupling=coupling,
            track_eta0=_integer(t, "eta0", 0, "track"),
            track_pair=tuple(_as_count(x, "track.pair entry") for x in pair),
        )
    if "crossings" in raw:
        _check_keys(raw["crossings"], {"max_levels"}, "crossings")
        kwargs["crossings_max_levels"] = _integer(
            raw["crossings"], "max_levels", 12, "crossings"
        )

    if command in ("sweep", "crossings", "esqpt", "track") and grid is None:
        raise ConfigError(f"the {command} command requires a grid section")

    return RunConfig(
        command=command,
        hamiltonian=spec,
        n_max=n_max,
        n_probe=n_probe,
        tol_conv=tol_conv,
        tol_deg=tol_deg,
        grid=grid,
        normalize=normalize,
        coloring=coloring,
        out_dir=out.get("directory", "."),
        formats=tuple(formats),
        basename=out.get("basename"),
        window=window,
        svg_style=style,
        **kwargs,
    )


def _color_class(coloring: str, residue: int, modulus) -> str:
    divisor = {"parity": 2, "mod2x2": 2, "mod3": 3, "mod4": 4}[coloring]
    if modulus != MOD_ALL and (not isinstance(modulus, int) or modulus % divisor != 0):
        raise ConfigError(
            f"coloring {coloring!r} incompatible with sector modulus {modulus!r}"
        )
    r = residue % divisor
    if coloring in ("parity", "mod2x2"):
        return "even" if r == 0 else "odd"
    return str(r)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return format(float(x), ".12g")


def _write_rows(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


_GRID_HEADER = [
    "param", "sector_residue", "level_index", "energy",
    "excitation_energy", "converged", "color_class",
]


def _level_stop(grid: SpectrumGrid, residue: int, max_levels: int | None) -> int:
    """Levels of one sector that are emitted: all, or the first ``max_levels``."""
    n = grid.n_levels(residue)
    return n if max_levels is None else min(max_levels, n)


def _write_grid_csv(
    path: Path, grid: SpectrumGrid, coloring: str, max_levels: int | None
) -> None:
    """Grid rows in (param, sector, level) order, written one grid point at a time.

    Everything that does not change along the grid (level fields, color
    class, flag strings, absolute and excitation arrays) is prepared once per
    sector; energies are formatted from Python floats with ``.12g``, exactly
    as :func:`_fmt` formats each value.
    """
    sectors = []
    for r in grid.residues:
        n = _level_stop(grid, r, max_levels)
        sectors.append((
            [f"{r},{lvl}," for lvl in range(n)],
            grid.absolute(r)[:, :n],
            grid.excitation(r)[:, :n],
            np.where(grid.converged[r][:, :n], "1", "0"),
            f",{_color_class(coloring, r, grid.modulus)}\n",
        ))
    with path.open("w") as fh:
        fh.write(",".join(_GRID_HEADER) + "\n")
        for g, param in enumerate(grid.params.tolist()):
            p = f"{param:.12g},"
            for heads, absolute, excitation, flags, tail in sectors:
                fh.write("".join([
                    f"{p}{head}{e:.12g},{x:.12g},{f}{tail}"
                    for head, e, x, f in zip(
                        heads, absolute[g].tolist(), excitation[g].tolist(), flags[g].tolist()
                    )
                ]))


# record type -> (CSV header, row of one record)
_TABLES = {
    CrossingEvent: (
        ["kind", "param_value", "residue_a", "index_a", "residue_b", "index_b", "min_gap"],
        lambda e: (e.kind, e.param_value, *e.level_pair, e.min_gap),
    ),
    SeparatrixPoint: (
        ["v", "method", "xi_c", "E_c", "rel_dev_sq"],
        lambda e: (e.v, e.method, e.xi_c, e.E_c, e.rel_dev),
    ),
    CasimirLevel: (
        ["v", "pi_prime", "casimir_value"],
        lambda e: (e.v, e.pi_prime, e.value),
    ),
    TrackedCrossing: (
        ["coupling_value", "eta_star", "found", "gap"],
        lambda e: (e.coupling_value, e.eta_star, 1 if e.found else 0, e.gap),
    ),
}


def _write_table(path: str | Path, kind: type, records) -> Path:
    """A table of ``kind`` records; its header is written even when it is empty."""
    path = Path(path)
    header, row = _TABLES[kind]
    _write_rows(path, header, map(row, records))
    return path


def emit_csv(
    result,
    path: str | Path,
    coloring: str = "parity",
    max_levels: int | None = None,
    param: float = 0.0,
) -> Path:
    """Write an analysis result as deterministic CSV; dispatches on type.

    An empty list carries no record type and is written with the spectrum
    header; the CLI writes its record tables through their own header.
    """
    path = Path(path)
    if isinstance(result, SpectrumGrid):
        _write_grid_csv(path, result, coloring, max_levels)
    elif isinstance(result, ConvergedSpectrum):
        rows = (
            (param, int(r), i, e, x, c, _color_class(coloring, int(r), result.modulus))
            for i, (e, x, r, c) in enumerate(
                zip(result.energies, result.excitations, result.residues, result.converged)
            )
        )
        _write_rows(path, _GRID_HEADER, rows)
    elif isinstance(result, list) and not result:
        _write_rows(path, _GRID_HEADER, ())
    elif isinstance(result, list) and (
        kind := next((k for k in _TABLES if all(isinstance(e, k) for e in result)), None)
    ):
        _write_table(path, kind, result)
    else:
        raise TypeError(f"no CSV writer for {type(result).__name__}")
    return path


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def emit_svg(grid: SpectrumGrid, style: SvgStyle, path: str | Path, coloring: str = "parity") -> Path:
    """Self-contained SVG: one polyline per level curve plus optional overlays."""
    path = Path(path)
    w, h, m = style.width, style.height, style.margin
    x = grid.params
    x_lo, x_hi = float(x[0]), float(x[-1])

    blocks = []  # (color, the sector's plotted level curves as columns)
    for r in grid.residues:
        color = _PALETTES[coloring][_color_class(coloring, r, grid.modulus)]
        stop = _level_stop(grid, r, style.max_levels)
        if stop:
            blocks.append((color, grid.curves[r][:, :stop]))
    if not blocks:
        raise ValueError("nothing to plot")

    y_lo = style.y_min if style.y_min is not None else min(float(b.min()) for _, b in blocks)
    y_hi = style.y_max if style.y_max is not None else max(float(b.max()) for _, b in blocks)
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    # sx/sy take scalars (ticks) and whole arrays (polylines); element-wise
    # IEEE operations round as the scalar expressions do, so a coordinate
    # prints the same either way
    def sx(v):
        return m + (v - x_lo) / (x_hi - x_lo) * (w - 2 * m)

    def sy(v):
        return h - m - (v - y_lo) / (y_hi - y_lo) * (h - 2 * m)

    x_fields = [f"{px:.2f}," for px in sx(x).tolist()]

    def points(ys) -> str:
        return " ".join([px + f"{py:.2f}" for px, py in zip(x_fields, ys)])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{h - m}" x2="{px:.2f}" y2="{h - m + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{h - m + 22}" font-size="13" text-anchor="middle">{t:.6g}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(
            f'<line x1="{m - 6}" y1="{py:.2f}" x2="{m}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{m - 10}" y="{py + 4:.2f}" font-size="13" text-anchor="end">{t:.6g}</text>'
        )

    clip = f'<clipPath id="frame"><rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}"/></clipPath>'
    parts.append(clip)
    for color, block in blocks:
        for ys in sy(block).T.tolist():
            parts.append(
                f'<polyline points="{points(ys)}" fill="none" stroke="{color}" '
                f'stroke-width="1.2" clip-path="url(#frame)"/>'
            )
    for kind in style.separatrices:
        model = SeparatrixModel(kind)
        # the models depend on eta and xi only; other swept couplings stay fixed
        params = {"eta": grid.plan.fixed.eta, "xi": grid.plan.fixed.xi}
        if grid.plan.varying in params:
            params[grid.plan.varying] = x
        ys = model.evaluate(**params)
        # a model that does not depend on the varying parameter is a flat line
        ys = np.broadcast_to(ys, x.shape)
        parts.append(
            f'<polyline points="{points(sy(ys).tolist())}" fill="none" stroke="black" '
            f'stroke-width="1.4" stroke-dasharray="8 5" clip-path="url(#frame)"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def _build_plan(cfg: RunConfig) -> SweepPlan:
    assert cfg.grid is not None
    return SweepPlan(
        varying=cfg.grid.varying,
        grid=cfg.grid.values(),
        fixed=cfg.hamiltonian,
        n_max=cfg.n_max,
        n_probe=cfg.n_probe,
        tol_conv=cfg.tol_conv,
        normalize=cfg.normalize,
    )


def _require_converged(flags: list[np.ndarray], cfg: RunConfig) -> None:
    """Refuse a result whose emitted levels are all unconverged.

    Such a result is truncation artefact only, as for a spectrum that is not
    bounded below; an empty result (nothing in the window) is not refused.
    """
    total = sum(f.size for f in flags)
    if total and not any(f.any() for f in flags):
        raise EigenSolverError(
            f"none of the {total} emitted levels converged between n_max={cfg.n_max} "
            f"and n_probe={cfg.n_probe} (is the spectrum bounded below?)"
        )


def _dispatch(cfg: RunConfig) -> list[Path]:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = cfg.basename or cfg.command
    written: list[Path] = []

    if cfg.command == "spectrum":
        spectrum = converged_spectrum(
            cfg.hamiltonian, cfg.n_max, cfg.n_probe, cfg.tol_conv, cfg.window
        )
        _require_converged([spectrum.converged], cfg)
        written.append(
            emit_csv(
                spectrum, out_dir / f"{base}.csv", cfg.coloring, param=cfg.hamiltonian.eta
            )
        )
        return written

    if cfg.command == "casimir":
        levels = casimir_spectrum(U2Rep(cfg.casimir_N))
        written.append(_write_table(out_dir / f"{base}.csv", CasimirLevel, levels))
        return written

    if cfg.command == "track":
        assert cfg.grid is not None
        expect = COUPLING_KINDS[cfg.track_coupling]
        if cfg.grid.varying != expect:
            raise ConfigError(
                f"track grid must vary {expect!r} for coupling {cfg.track_coupling!r}"
            )
        points = track_crossing_location(
            LevelPair(*cfg.track_pair),
            cfg.track_coupling,
            cfg.grid.values(),
            cfg.track_eta0,
            n_max=cfg.n_max,
        )
        written.append(_write_table(out_dir / f"{base}.csv", TrackedCrossing, points))
        return written

    plan = _build_plan(cfg)
    grid = run_sweep(plan, threads=cfg.threads)

    if cfg.command == "sweep":
        max_levels = cfg.svg_style.max_levels
        _require_converged(
            [grid.converged[r][:, : _level_stop(grid, r, max_levels)] for r in grid.residues],
            cfg,
        )
        if "csv" in cfg.formats:
            written.append(
                emit_csv(grid, out_dir / f"{base}.csv", cfg.coloring, max_levels)
            )
        if "svg" in cfg.formats:
            written.append(emit_svg(grid, cfg.svg_style, out_dir / f"{base}.svg", cfg.coloring))
        return written

    if cfg.command == "crossings":
        events = detect_crossings(grid, max_levels=cfg.crossings_max_levels)
        written.append(_write_table(out_dir / f"{base}.csv", CrossingEvent, events))
        return written

    if cfg.command == "esqpt":
        curves = gap_curves(grid, cfg.v_max)
        estimates = []
        for curve in curves[1:]:  # v >= 1: the v = 0 pair never opens a usable gap head
            for estimator in (xi_c_max_rate, xi_c_linear_extrapolation, xi_c_difference_bound):
                est = estimator(curve)
                if est is not None:
                    estimates.append(est)
        points = separatrix_from_estimates(estimates)
        written.append(_write_table(out_dir / f"{base}.csv", SeparatrixPoint, points))
        return written

    raise ConfigError(f"unhandled command {cfg.command!r}")


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    try:
        _dispatch(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EigenSolverError, ValueError) as exc:
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
        "--threads", type=int, default=0, help="worker threads for sweeps (0 = auto)"
    )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 4
    overrides: dict = {"threads": args.threads}
    if args.out is not None:
        overrides["out_dir"] = args.out
    from dataclasses import replace

    cfg = replace(cfg, **overrides)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
