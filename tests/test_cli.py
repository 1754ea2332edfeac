import json
from pathlib import Path

import pytest

from kerrspec.cli import (
    ConfigError,
    SvgStyle,
    emit_csv,
    emit_svg,
    load_config,
    main,
    run,
)
from kerrspec.esqpt import SeparatrixPoint
from kerrspec.fock import HamiltonianSpec
from kerrspec.sweep import SweepPlan, run_sweep


def write_config(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def sweep_config(out_dir: str, **extra) -> dict:
    cfg = {
        "schema_version": 1,
        "command": "sweep",
        "hamiltonian": {"eta": 0.0, "xi": 1.0},
        "numeric": {"n_max": 30, "n_probe": 45},
        "grid": {"varying": "eta", "start": 0.0, "stop": 2.0, "step": 0.5},
        "output": {"directory": out_dir},
    }
    cfg.update(extra)
    return cfg


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path, {**sweep_config(str(tmp_path)), "rng_seed": 7})
        with pytest.raises(ConfigError, match="rng_seed"):
            load_config(cfg)

    def test_unknown_nested_key(self, tmp_path):
        payload = sweep_config(str(tmp_path))
        payload["hamiltonian"]["kappa"] = 0.1
        with pytest.raises(ConfigError, match="kappa"):
            load_config(write_config(tmp_path, payload))

    def test_schema_version_required(self, tmp_path):
        payload = sweep_config(str(tmp_path))
        payload["schema_version"] = 2
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write_config(tmp_path, payload))

    def test_sweep_requires_grid(self, tmp_path):
        payload = sweep_config(str(tmp_path))
        del payload["grid"]
        with pytest.raises(ConfigError, match="grid"):
            load_config(write_config(tmp_path, payload))

    def test_step_must_divide_range(self, tmp_path):
        payload = sweep_config(str(tmp_path))
        payload["grid"]["step"] = 0.3
        cfg = load_config(write_config(tmp_path, payload))
        with pytest.raises(ConfigError):
            cfg.grid.values()

    def test_command_sections_are_owned(self, tmp_path):
        payload = sweep_config(str(tmp_path))
        payload["casimir"] = {"N": 10}
        with pytest.raises(ConfigError, match="casimir"):
            load_config(write_config(tmp_path, payload))

    def test_main_exit_codes(self, tmp_path):
        bad = write_config(tmp_path, {"schema_version": 1, "command": "warp"})
        assert main(["--config", str(bad)]) == 2
        assert main(["--config", str(tmp_path / "missing.json")]) == 4


def track_config(out_dir: str, **track) -> dict:
    return {
        "schema_version": 1,
        "command": "track",
        "numeric": {"n_max": 60, "n_probe": 90},
        "grid": {"varying": "xi", "start": 0.1, "stop": 0.2, "step": 0.1},
        "track": {"coupling": "P2", "eta0": 2, "pair": [0, 0, 1, 0], **track},
        "output": {"directory": out_dir},
    }


def with_numeric(out_dir: str, **numeric) -> dict:
    return sweep_config(out_dir, numeric=numeric)


class TestMalformedConfigExitTwo:
    """Every malformed configuration is a configuration error: exit 2, no traceback."""

    CASES = {
        "unknown coupling": lambda d: track_config(d, coupling="P9"),
        "coupling not a string": lambda d: track_config(d, coupling=["P2"]),
        "pair entry not an integer": lambda d: track_config(d, pair=[0, "a", 1, 0]),
        "window entry not a number": lambda d: sweep_config(d, window=["a", 1]),
        "hamiltonian not an object": lambda d: sweep_config(d, hamiltonian=[]),
        "numeric not an object": lambda d: sweep_config(d, numeric="fast"),
        "grid not an object": lambda d: sweep_config(d, grid=[0, 1]),
        "output not an object": lambda d: sweep_config(d, output=None),
        "svg not an object": lambda d: sweep_config(d, svg=3),
        "higher_order not an object": lambda d: sweep_config(
            d, hamiltonian={"eta": 0.0, "higher_order": [1.0]}
        ),
        "fractional n_max": lambda d: with_numeric(d, n_max=40.7, n_probe=60),
        "negative n_max": lambda d: with_numeric(d, n_max=-3, n_probe=60),
        "negative n_probe": lambda d: with_numeric(d, n_max=30, n_probe=-3),
        "n_probe not above n_max": lambda d: with_numeric(d, n_max=30, n_probe=30),
        "formats not a list": lambda d: sweep_config(d, output={"directory": d, "formats": 5}),
        "directory not a string": lambda d: sweep_config(d, output={"directory": 5}),
        "separatrices not a list": lambda d: sweep_config(d, svg={"separatrices": None}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_two_without_traceback(self, case, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CASES[case](str(tmp_path / "out")))
        assert main(["--config", str(cfg), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_integral_float_counts_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, with_numeric(str(tmp_path), n_max=30.0, n_probe=45)))
        assert cfg.n_max == 30 and isinstance(cfg.n_max, int)

    def test_seedless_flag_removed(self, tmp_path):
        cfg = write_config(tmp_path, sweep_config(str(tmp_path)))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "--seedless"])
        assert exc.value.code == 2


class TestCsv:
    def test_grid_csv_layout_and_roundtrip(self, tmp_path):
        plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5, 1.0), fixed=HamiltonianSpec(xi=1.0),
            n_max=20, n_probe=30,
        )
        grid = run_sweep(plan)
        path = emit_csv(grid, tmp_path / "grid.csv", coloring="parity")
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "param", "sector_residue", "level_index", "energy",
            "excitation_energy", "converged", "color_class",
        ]
        rows = [ln.split(",") for ln in lines[1:]]
        params = [float(r[0]) for r in rows]
        assert params == sorted(params)
        assert {r[6] for r in rows} == {"even", "odd"}
        # energies recoverable to the printed 12 significant digits
        for row in rows[:40]:
            g = int(round(float(row[0]) / 0.5))
            r, lvl = int(row[1]), int(row[2])
            stored = grid.absolute(r)[g, lvl]
            assert float(row[3]) == pytest.approx(stored, rel=1e-11, abs=1e-11)

    def test_rerun_byte_identical(self, tmp_path):
        plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5, 1.0), fixed=HamiltonianSpec(xi=1.0),
            n_max=25, n_probe=40,
        )
        a = emit_csv(run_sweep(plan, threads=1), tmp_path / "a.csv")
        b = emit_csv(run_sweep(plan, threads=4), tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_empty_result_header_only(self, tmp_path):
        path = emit_csv([], tmp_path / "empty.csv")
        assert path.read_text().splitlines() == [
            "param,sector_residue,level_index,energy,excitation_energy,converged,color_class"
        ]

    def test_separatrix_points_table(self, tmp_path):
        pts = [SeparatrixPoint(1, "max_rate", 3.1, 10.0, 0.04)]
        path = emit_csv(pts, tmp_path / "pts.csv")
        assert path.read_text().splitlines()[1] == "1,max_rate,3.1,10,0.04"

    def test_mod4_coloring_classes(self, tmp_path):
        plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5), fixed=HamiltonianSpec(xi4=0.1),
            n_max=15, n_probe=25,
        )
        path = emit_csv(run_sweep(plan), tmp_path / "m4.csv", coloring="mod4")
        classes = {ln.split(",")[6] for ln in path.read_text().splitlines()[1:]}
        assert classes == {"0", "1", "2", "3"}

    def test_coloring_modulus_mismatch(self, tmp_path):
        plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5), fixed=HamiltonianSpec(xi=1.0),
            n_max=15, n_probe=25,
        )
        with pytest.raises(ConfigError):
            emit_csv(run_sweep(plan), tmp_path / "x.csv", coloring="mod3")


class TestSvg:
    def test_flat_level_single_polyline(self, tmp_path):
        # the vacuum level of the undriven oscillator stays at zero for all eta
        plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5, 1.0), fixed=HamiltonianSpec(),
            n_max=6, n_probe=12, normalize="absolute",
        )
        grid = run_sweep(plan)
        path = emit_svg(
            grid, SvgStyle(max_levels=1), tmp_path / "flat.svg", coloring="parity"
        )
        text = path.read_text()
        polylines = [ln for ln in text.splitlines() if ln.startswith("<polyline")]
        assert len(polylines) == 7  # one per Fock state kept (levels are per sector)
        first = polylines[0].split('points="')[1].split('"')[0]
        ys = {pt.split(",")[1] for pt in first.split()}
        assert len(ys) == 1  # horizontal

    def test_overlay_and_colors(self, tmp_path):
        plan = SweepPlan(
            varying="xi", grid=(0.0, 0.5, 1.0, 1.5), fixed=HamiltonianSpec(eta=0.0),
            n_max=20, n_probe=30,
        )
        grid = run_sweep(plan)
        style = SvgStyle(max_levels=4, separatrices=("squeeze",))
        text = emit_svg(grid, style, tmp_path / "sq.svg").read_text()
        assert "stroke-dasharray" in text
        assert "#e66101" in text and "#1f78b4" in text

    def test_mod3_shades(self, tmp_path):
        plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5), fixed=HamiltonianSpec(xi3=0.1),
            n_max=15, n_probe=25,
        )
        text = emit_svg(
            run_sweep(plan), SvgStyle(max_levels=2), tmp_path / "m3.svg", coloring="mod3"
        ).read_text()
        assert all(color in text for color in ("#1b7837", "#5aae61", "#a6dba0"))


class TestCommands:
    def test_sweep_command_end_to_end(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path,
                sweep_config(
                    str(tmp_path / "out"),
                    output={"directory": str(tmp_path / "out"), "formats": ["csv", "svg"]},
                ),
            )
        )
        assert run(cfg) == 0
        assert (tmp_path / "out" / "sweep.csv").exists()
        assert (tmp_path / "out" / "sweep.svg").exists()

    def test_spectrum_command(self, tmp_path):
        payload = {
            "schema_version": 1,
            "command": "spectrum",
            "hamiltonian": {"eta": 4.0},
            "numeric": {"n_max": 20, "n_probe": 30},
            "window": [0.0, 6.0],
            "output": {"directory": str(tmp_path)},
        }
        assert run(load_config(write_config(tmp_path, payload))) == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        excitations = [float(ln.split(",")[4]) for ln in lines[1:]]
        assert excitations == [0, 0, 2, 2, 6, 6]

    def test_casimir_command(self, tmp_path):
        payload = {
            "schema_version": 1,
            "command": "casimir",
            "casimir": {"N": 50},
            "output": {"directory": str(tmp_path)},
        }
        assert run(load_config(write_config(tmp_path, payload))) == 0
        lines = (tmp_path / "casimir.csv").read_text().splitlines()
        assert len(lines) == 52
        assert lines[1].startswith("0,1,2500")

    def test_track_command_validates_grid_parameter(self, tmp_path):
        payload = {
            "schema_version": 1,
            "command": "track",
            "numeric": {"n_max": 60, "n_probe": 90},
            "grid": {"varying": "xi", "start": 0.1, "stop": 0.2, "step": 0.1},
            "track": {"coupling": "P3", "eta0": 2, "pair": [1, 0, 2, 0]},
            "output": {"directory": str(tmp_path)},
        }
        assert run(load_config(write_config(tmp_path, payload))) == 2  # xi vs xi3

    def test_numeric_failure_exit_code(self, tmp_path):
        payload = {
            "schema_version": 1,
            "command": "esqpt",
            "hamiltonian": {"eta": 0.0},
            "numeric": {"n_max": 16, "n_probe": 24},
            "grid": {"varying": "xi", "start": 0.0, "stop": 8.0, "step": 0.5},
            "esqpt": {"v_max": 7},
            "output": {"directory": str(tmp_path)},
        }
        assert run(load_config(write_config(tmp_path, payload))) == 3

    def test_io_failure_exit_code(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        payload = sweep_config(str(blocker))
        assert run(load_config(write_config(tmp_path, payload))) == 4

    def test_main_end_to_end_with_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, sweep_config(str(tmp_path / "ignored")))
        out = tmp_path / "cli_out"
        assert main(["--config", str(cfg_path), "--out", str(out), "--threads", "2"]) == 0
        assert (out / "sweep.csv").exists()

    def test_esqpt_command_table(self, tmp_path):
        payload = {
            "schema_version": 1,
            "command": "esqpt",
            "hamiltonian": {"eta": 0.0},
            "numeric": {"n_max": 200, "n_probe": 260},
            "grid": {"varying": "xi", "start": 0.0, "stop": 8.0, "step": 0.05},
            "esqpt": {"v_max": 1},
            "output": {"directory": str(tmp_path)},
        }
        assert run(load_config(write_config(tmp_path, payload))) == 0
        lines = (tmp_path / "esqpt.csv").read_text().splitlines()
        assert lines[0] == "v,method,xi_c,E_c,rel_dev_sq"
        methods = {ln.split(",")[1] for ln in lines[1:]}
        assert methods == {"max_rate", "linear_extrapolation", "difference_bound"}
