import contextlib
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kerrspec.cli import (
    COLORINGS,
    COMMANDS,
    MAX_BASIS,
    MAX_CASIMIR_N,
    SVG_HEIGHT,
    SVG_MARGIN,
    SVG_WIDTH,
    ConfigError,
    GridConfig,
    SvgStyle,
    _ALL_COLOR,
    _COMMANDS,
    _PALETTES,
    _TABLES,
    _color_class,
    _nice_ticks,
    _write_table,
    emit_csv,
    emit_svg,
    load_config,
    main,
    run,
)
from kerrspec.classify import CrossingEvent, LevelPair, TrackedCrossing, track_crossing_location
from kerrspec.esqpt import CriticalPointEstimate, SeparatrixModel
from kerrspec.fock import HamiltonianSpec, HigherOrderCorrections
from kerrspec.sectors import MOD_ALL
from kerrspec.sweep import SpectrumGrid, SweepPlan, converged_spectrum, run_sweep
from kerrspec.u2 import CasimirLevel


def write_config(tmp_path: Path, payload: dict | str) -> Path:
    """Write a payload as JSON; a str is taken as the document's text."""
    path = tmp_path / "config.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
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
        with pytest.raises(ConfigError, match="evenly"):
            load_config(write_config(tmp_path, payload))

    def test_command_sections_are_owned(self, tmp_path):
        payload = sweep_config(str(tmp_path))
        payload["casimir"] = {"N": 10}
        with pytest.raises(ConfigError, match="casimir"):
            load_config(write_config(tmp_path, payload))

    def test_main_exit_codes(self, tmp_path):
        bad = write_config(tmp_path, {"schema_version": 1, "command": "warp"})
        assert main(["--config", str(bad)]) == 2
        assert main(["--config", str(tmp_path / "missing.json")]) == 4


def spectrum_config(out_dir: str, **extra) -> dict:
    cfg = sweep_config(out_dir, command="spectrum", **extra)
    del cfg["grid"]
    return cfg


def track_config(out_dir: str, **track) -> dict:
    """A P2 track config: its grid varies xi, the field P2 scales."""
    return {
        "schema_version": 1,
        "command": "track",
        "numeric": {"n_max": 60},
        "grid": {"varying": "xi", "start": 0.1, "stop": 0.2, "step": 0.1},
        "track": {"eta0": 2, "pair": [0, 0, 1, 0], **track},
        "output": {"directory": out_dir},
    }


def with_numeric(out_dir: str, **numeric) -> dict:
    return sweep_config(out_dir, numeric=numeric)


def esqpt_config(out_dir: str, **extra) -> dict:
    """An esqpt config at n_max 40 that passes every configuration check until ``extra``
    replaces a section (its grid is too short to map the separatrix, which exits 3)."""
    base = dict(command="esqpt", hamiltonian={}, numeric={"n_max": 40, "n_probe": 60},
                grid={"varying": "xi", "start": 0.0, "stop": 2.0, "step": 0.5})
    return sweep_config(out_dir, **{**base, **extra})


def track_at_n_max_40(out_dir: str, varying: str = "xi", **track) -> dict:
    cfg = track_config(out_dir, **track)
    cfg["numeric"] = {"n_max": 40}
    cfg["grid"]["varying"] = varying
    return cfg


def crossings_config(out_dir: str, **extra) -> dict:
    return sweep_config(out_dir, command="crossings", **extra)


class TestMalformedConfigExitTwo:
    """Every malformed configuration is a configuration error: exit 2, no traceback."""

    CASES = {
        "schema_version true": lambda d: {**spectrum_config(d), "schema_version": True},
        "unknown coupling": lambda d: track_config(d, coupling="P9"),
        "coupling not a string": lambda d: track_config(d, coupling=["P2"]),
        "pair entry not an integer": lambda d: track_config(d, pair=[0, "a", 1, 0]),
        "window entry not a number": lambda d: spectrum_config(d, window=["a", 1]),
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
        "unknown separatrix kind": lambda d: sweep_config(d, svg={"separatrices": ["bogus"]}),
        "svg.max_levels zero": lambda d: sweep_config(
            d, output={"directory": d, "formats": ["csv", "svg"]}, svg={"max_levels": 0}
        ),
        "pair residue outside the sectors": lambda d: track_at_n_max_40(d, pair=[5, 0, 1, 0]),
        "pair level beyond its block": lambda d: track_at_n_max_40(d, pair=[0, 99, 1, 0]),
        "P3 pair level beyond its block": lambda d: track_at_n_max_40(
            d, varying="xi3", pair=[2, 13, 1, 0]
        ),
        "default pair beyond a one-state basis": lambda d: {
            **track_config(d), "numeric": {"n_max": 0}, "track": {}
        },
        "track pair names one level twice": lambda d: track_config(d, pair=[0, 0, 0, 0]),
        "track.coupling restates grid.varying": lambda d: track_config(d, coupling="P2"),
        "track grid varies eta": lambda d: {
            **track_config(d), "grid": {"varying": "eta", "start": 1.0, "stop": 3.0, "step": 1.0}
        },
        "n_probe on track": lambda d: {
            **track_config(d), "numeric": {"n_max": 60, "n_probe": MAX_BASIS + 1}
        },
        "tol_conv on track": lambda d: {
            **track_config(d), "numeric": {"n_max": 60, "tol_conv": -1}
        },
        "normalize on crossings": lambda d: crossings_config(d, normalize="excitation"),
        "crossings max_levels zero": lambda d: crossings_config(d, crossings={"max_levels": 0}),
        "mod2x2 coloring": lambda d: sweep_config(d, coloring="mod2x2"),
        "esqpt v_max zero": lambda d: esqpt_config(d, esqpt={"v_max": 0}),
        "svg narrower than its margins": lambda d: sweep_config(
            d, output={"directory": d, "formats": ["csv", "svg"]}, svg={"width": 100}
        ),
        "svg height of twice its margin": lambda d: sweep_config(
            d, svg={"height": 200, "margin": 100}
        ),
        "casimir N zero": lambda d: {
            "schema_version": 1, "command": "casimir", "casimir": {"N": 0},
            "output": {"directory": d},
        },
        "casimir N above the cap": lambda d: {
            "schema_version": 1, "command": "casimir", "casimir": {"N": MAX_CASIMIR_N + 1},
            "output": {"directory": d},
        },
        "track ignores eta and xi3": lambda d: {
            **track_config(d), "hamiltonian": {"eta": 3, "xi3": 0.7}
        },
        "track sets the xi field": lambda d: {
            **track_config(d), "hamiltonian": {"xi": 0.5, "higher_order": {"kerr3": 0.2}}
        },
        "P3 track sets the xi3 field": lambda d: {
            **track_at_n_max_40(d, varying="xi3", pair=[1, 0, 2, 0]), "hamiltonian": {"xi3": 0.1}
        },
        "track pair residue beyond a xi3 base spec": lambda d: {
            **track_config(d), "hamiltonian": {"xi3": 0.1}
        },
        "negative tol_conv": lambda d: with_numeric(d, n_max=30, n_probe=45, tol_conv=-1e-8),
        "reversed window": lambda d: spectrum_config(d, window=[5, 1]),
        "tol_deg is no longer a key": lambda d: with_numeric(
            d, n_max=30, n_probe=45, tol_deg=1e-6
        ),
        "esqpt grid varies eta": lambda d: esqpt_config(
            d, grid={"varying": "eta", "start": 0.0, "stop": 2.0, "step": 0.5}
        ),
        "esqpt detuned": lambda d: esqpt_config(d, hamiltonian={"eta": 1.0}),
        "esqpt detuned through higher_order": lambda d: esqpt_config(
            d, hamiltonian={"higher_order": {"detuning3": 3.0}}
        ),
        "esqpt without parity sectors": lambda d: esqpt_config(d, hamiltonian={"xi3": 0.1}),
        "esqpt v_max beyond the odd levels": lambda d: esqpt_config(d, esqpt={"v_max": 30}),
        "esqpt v_max one with one odd level": lambda d: esqpt_config(
            d, numeric={"n_max": 2, "n_probe": 4}, esqpt={"v_max": 1}
        ),
        "n_max above the basis cap": lambda d: with_numeric(d, n_max=MAX_BASIS + 1),
        "track n_max above the basis cap": lambda d: {
            **track_config(d), "numeric": {"n_max": MAX_BASIS + 1}
        },
        "n_probe above the basis cap": lambda d: with_numeric(d, n_max=30, n_probe=MAX_BASIS + 1),
        "svg.y_min above svg.y_max": lambda d: sweep_config(
            d, output={"directory": d, "formats": ["csv", "svg"]}, svg={"y_min": 10, "y_max": 0}
        ),
        "svg y range wider than a float": lambda d: sweep_config(
            d, svg={"y_min": -1e308, "y_max": 1e308}
        ),
        "svg y range below a normal float": lambda d: sweep_config(
            d, svg={"y_min": 0, "y_max": 5e-324}
        ),
        "top level not an object": lambda d: [spectrum_config(d)],
        "window of three entries": lambda d: spectrum_config(d, window=[0, 1, 2]),
        "window not a list": lambda d: spectrum_config(d, window=5),
        "track pair of three entries": lambda d: track_config(d, pair=[0, 0, 1]),
        "grid step zero": lambda d: sweep_config(
            d, grid={"varying": "eta", "start": 0.0, "stop": 2.0, "step": 0}
        ),
        "grid step negative": lambda d: sweep_config(
            d, grid={"varying": "eta", "start": 2.0, "stop": 0.0, "step": -0.5}
        ),
        "reversed grid": lambda d: sweep_config(
            d, grid={"varying": "eta", "start": 2.0, "stop": 0.0, "step": 0.5}
        ),
        "one-point grid": lambda d: sweep_config(
            d, grid={"varying": "eta", "start": 1.0, "stop": 1.0, "step": 0.5}
        ),
        "svg.width set": lambda d: sweep_config(d, svg={"width": 800}),
        "svg.height set": lambda d: sweep_config(d, svg={"height": 600}),
        "svg.margin set": lambda d: sweep_config(d, svg={"margin": 40}),
        "basename with a path separator": lambda d: sweep_config(
            d, output={"directory": d, "basename": "sub/x"}
        ),
        "casimir basename with a path separator": lambda d: {
            "schema_version": 1, "command": "casimir",
            "output": {"directory": d, "basename": "sub/x"},
        },
        "empty basename": lambda d: sweep_config(d, output={"directory": d, "basename": ""}),
        "basename .": lambda d: sweep_config(d, output={"directory": d, "basename": "."}),
        "basename ..": lambda d: sweep_config(d, output={"directory": d, "basename": ".."}),
        "basename with a NUL": lambda d: sweep_config(
            d, output={"directory": d, "basename": "x\0y"}
        ),
        "directory with a NUL": lambda d: sweep_config(d, output={"directory": d + "\0x"}),
        # past Python's 4300-digit limit json.loads raises a plain ValueError
        "5000-digit integer": lambda d: json.dumps(spectrum_config(d)).replace(
            '"eta": 0.0', '"eta": 1' + "0" * 4999
        ),
        # each is read as a real first: a count past the float range is not counted
        "400-digit hamiltonian.eta": lambda d: spectrum_config(
            d, hamiltonian={"eta": 10**399, "xi": 1.0}
        ),
        "400-digit crossings.max_levels": lambda d: crossings_config(
            d, crossings={"max_levels": 10**399}
        ),
        "400-digit track.eta0": lambda d: track_config(d, eta0=10**399),
        "tol_conv true": lambda d: with_numeric(d, n_max=30, n_probe=45, tol_conv=True),
    }

    # case -> a fragment its error message must hold
    MESSAGES = {
        "schema_version true": "schema_version must be 1",
        "reversed grid": "grid.stop must be above grid.start",
        "one-point grid": "grid.stop must be above grid.start",
        "svg.width set": "unknown key(s) in svg: ['width']",
        "svg.height set": "unknown key(s) in svg: ['height']",
        "svg.margin set": "unknown key(s) in svg: ['margin']",
        "basename with a path separator": "output.basename must be a file name",
        "casimir basename with a path separator": "output.basename must be a file name",
        "empty basename": "output.basename must be a file name",
        "basename .": "output.basename must be a file name",
        "basename ..": "output.basename must be a file name",
        "basename with a NUL": "output.basename must not contain a NUL",
        "directory with a NUL": "output.directory must not contain a NUL",
        "n_probe on track": "numeric.n_probe=100001 is above the 100000-state basis cap",
        "tol_conv on track": "numeric.tol_conv must be finite and not negative",
        "track ignores eta and xi3": "the track command sets hamiltonian.eta itself",
        "track sets the xi field": "the track command sets hamiltonian.xi itself",
        "P3 track sets the xi3 field": "the track command sets hamiltonian.xi3 itself",
        # P2 over xi3 conserves no occupation modulus but 1: one sector, residue 0
        "track pair residue beyond a xi3 base spec": "pair level (1, 0) is not among",
        # the pairs v = 0..v_max need v_max + 1 odd levels
        "esqpt v_max one with one odd level": "v_max=1 needs 2 odd levels and the basis has 1",
        "esqpt detuned through higher_order": "undetuned Hamiltonian, got {'eta': 0.0, "
        "'detuning3': 3.0, 'detuning4': 0.0}",
        "5000-digit integer": "invalid JSON",
        "400-digit hamiltonian.eta": "hamiltonian.eta must be a finite real, got 1000",
        "400-digit crossings.max_levels": "crossings.max_levels must be a finite real, got 1000",
        "400-digit track.eta0": "track.eta0 must be a finite real, got 1000",
        "tol_conv true": "numeric.tol_conv must be a finite real, got True",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_two_without_traceback(self, case, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CASES[case](str(tmp_path / "out")))
        with pytest.raises(ConfigError):  # one pass validates: nothing is refused later
            load_config(cfg)
        assert main(["--config", str(cfg), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert self.MESSAGES.get(case, "") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_invalid_json_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"schema_version": 1, "command": "spectrum",')
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(cfg)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON")
        assert not (tmp_path / "out").exists()

    def test_track_refuses_the_fields_it_sets(self, tmp_path, capsys):
        # track solves for eta, and its grid (xi here) sets the coupling field
        out = tmp_path / "out"
        for ham, named in (({"eta": 0.0}, "hamiltonian.eta"), ({"xi": 0.0}, "hamiltonian.xi"),
                           ({"eta": 0.0, "xi": 0.0}, "hamiltonian.eta and hamiltonian.xi")):
            cfg = write_config(tmp_path, {**track_config(str(out)), "hamiltonian": ham})
            assert main(["--config", str(cfg)]) == 2
            assert f"the track command sets {named} itself" in capsys.readouterr().err
            assert not out.exists()
        for ham in ({}, {"xi3": 0.0}, {"higher_order": {"kerr3": 0.2}}):
            cfg = write_config(tmp_path, {**track_config(str(out)), "hamiltonian": ham})
            assert load_config(cfg).hamiltonian == HamiltonianSpec(
                xi3=ham.get("xi3", 0.0),
                higher=HigherOrderCorrections(kerr3=0.2) if "higher_order" in ham else None,
            )

    def test_track_grid_checked_before_the_output_directory_is_made(self, tmp_path, capsys):
        out = tmp_path / "not-yet"
        payload = track_config(str(out))
        payload["grid"]["varying"] = "eta"  # track varies eta itself, at each coupling value
        assert main(["--config", str(write_config(tmp_path, payload))]) == 2
        assert "track grid must vary one of ['xi', 'xi2p', 'xi3', 'xi4']" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_basis_accepted(self, tmp_path):
        payload = with_numeric(str(tmp_path), n_max=MAX_BASIS - 1, n_probe=MAX_BASIS)
        assert load_config(write_config(tmp_path, payload)).n_probe == MAX_BASIS

    @pytest.mark.parametrize("n_max", [0, 40, 800, 1000])
    def test_default_n_probe_is_the_library_default(self, tmp_path, n_max):
        cfg = load_config(write_config(tmp_path, with_numeric(str(tmp_path), n_max=n_max)))
        library = SweepPlan(varying="eta", grid=(0.0, 1.0), n_max=n_max).n_probe
        assert cfg.n_probe == cfg.plan.n_probe == library

    def test_n_probe_below_n_max_keeps_its_message(self, tmp_path):
        payload = with_numeric(str(tmp_path), n_max=30, n_probe=30)
        with pytest.raises(ConfigError, match=r"^numeric\.n_probe=30 must exceed n_max=30$"):
            load_config(write_config(tmp_path, payload))

    def test_track_basis_cap_covers_n_probe(self, tmp_path):
        # the default n_probe of n_max 90000 is 101250, above the cap, as on a sweep
        for payload in (track_config(str(tmp_path)), sweep_config(str(tmp_path))):
            payload["numeric"] = {"n_max": 90_000}
            with pytest.raises(ConfigError, match=r"^numeric\.n_probe=101250 is above the"):
                load_config(write_config(tmp_path, payload))

    def test_track_refusal_of_n_probe_names_what_it_reads(self, tmp_path, capsys):
        # track reads n_probe like every command, so it refuses it with the same message
        payload = {**track_config(str(tmp_path / "out")), "numeric": {"n_max": 60, "n_probe": 60}}
        assert main(["--config", str(write_config(tmp_path, payload))]) == 2
        assert "error: numeric.n_probe=60 must exceed n_max=60" in capsys.readouterr().err
        payload["numeric"] = {"n_max": 60, "n_probe": 90, "tol_conv": 1}
        cfg = load_config(write_config(tmp_path, payload))
        assert (cfg.plan.n_max, cfg.plan.n_probe, cfg.plan.tol_conv) == (60, 90, 1.0)

    def test_largest_casimir_N_accepted(self, tmp_path):
        payload = {
            "schema_version": 1, "command": "casimir", "casimir": {"N": MAX_CASIMIR_N},
            "output": {"directory": str(tmp_path)},
        }
        assert load_config(write_config(tmp_path, payload)).casimir_N == MAX_CASIMIR_N

    def test_last_level_of_each_track_sector_accepted(self, tmp_path):
        # n_max 40 under P3: sectors 0, 1, 2 hold 14, 13 and 13 states
        cfg = load_config(write_config(tmp_path, track_at_n_max_40(
            str(tmp_path), varying="xi3", pair=[2, 12, 0, 13])))
        assert cfg.track_pair == (2, 12, 0, 13)

    def test_integral_float_counts_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, with_numeric(str(tmp_path), n_max=30.0, n_probe=45)))
        assert cfg.n_max == 30 and isinstance(cfg.n_max, int)

    def test_integral_couplings_load_as_floats(self, tmp_path):
        ham = {"eta": 2, "xi": 1, "higher_order": {"cubic4": 0}}
        payload = spectrum_config(str(tmp_path), hamiltonian=ham)
        spec = load_config(write_config(tmp_path, payload)).hamiltonian
        assert spec == HamiltonianSpec(eta=2.0, xi=1.0, higher=HigherOrderCorrections(cubic4=0.0))
        assert all(type(x) is float for x in (spec.eta, spec.xi, spec.higher.cubic4))

    def test_oversized_grid_refused_before_it_is_built(self, tmp_path, capsys):
        # 10^9 + 1 points over [0, 1]: refused by its count, not by building it
        payload = sweep_config(str(tmp_path / "out"))
        payload["grid"]["step"] = 1e-9
        cfg = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match="more than"):
            load_config(cfg)
        assert main(["--config", str(cfg), "--threads", "1"]) == 2
        assert "more than" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match="more than"):
            GridConfig("eta", 0.0, 1.0, 1e-300).values()
        with pytest.raises(ConfigError, match="more than"):  # (stop - start) overflows
            GridConfig("eta", -1e308, 1e308, 1.0).values()
        with pytest.raises(ConfigError, match="evenly"):
            GridConfig("eta", 1e308, -1e308, 1.0).values()

    def test_negative_threads_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep_config(str(tmp_path / "out")))
        assert main(["--config", str(cfg), "--threads", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "threads" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_seedless_flag_removed(self, tmp_path):
        cfg = write_config(tmp_path, sweep_config(str(tmp_path)))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "--seedless"])
        assert exc.value.code == 2


# command -> the top-level sections it reads besides schema_version, command and output
READS = {
    "spectrum": {"hamiltonian", "numeric", "window", "coloring"},
    "sweep": {"hamiltonian", "numeric", "grid", "coloring", "svg"},
    "crossings": {"hamiltonian", "numeric", "grid", "crossings"},
    "esqpt": {"hamiltonian", "numeric", "grid", "esqpt"},
    "casimir": {"casimir"},
    "track": {"hamiltonian", "numeric", "grid", "track"},
}

# a valid value of every top-level section
SECTION_VALUES = {
    "hamiltonian": {},
    "numeric": {"n_max": 20},
    "grid": {"varying": "xi", "start": 0.5, "stop": 2.0, "step": 0.5},
    "normalize": "absolute",
    "coloring": "parity",
    "window": [0.0, 10.0],
    "svg": {"max_levels": 3},
    "esqpt": {"v_max": 2},
    "casimir": {"N": 4},
    "track": {"eta0": 2, "pair": [0, 0, 1, 0]},
    "crossings": {"max_levels": 3},
}


def command_config(command: str, out_dir: str, formats=("csv",)) -> dict:
    cfg = {"schema_version": 1, "command": command,
           "output": {"directory": out_dir, "formats": list(formats)}}
    cfg.update((section, SECTION_VALUES[section]) for section in READS[command])
    return cfg


class TestSectionsEachCommandReads:
    """A section the command would ignore is a configuration error: exit 2, nothing made."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_section_it_reads_accepted(self, command, tmp_path):
        cfg = load_config(write_config(tmp_path, command_config(command, "out")))
        assert cfg.command == command

    @pytest.mark.parametrize(
        "command, section",
        [(c, s) for c in READS for s in sorted(SECTION_VALUES.keys() - READS[c])],
    )
    def test_unread_section_exits_two(self, command, section, tmp_path, capsys):
        out = tmp_path / "out"
        payload = {**command_config(command, str(out)), section: SECTION_VALUES[section]}
        assert main(["--config", str(write_config(tmp_path, payload)), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"['{section}']" in err
        assert not out.exists()

    def test_error_names_every_unread_section(self, tmp_path, capsys):
        out = tmp_path / "out"
        payload = {
            **command_config("casimir", str(out)),
            "grid": {"varying": "eta", "start": 0.0, "stop": 1.0, "step": 0.5},
            "svg": {"max_levels": 3},
            "coloring": "mod3",
            "window": [0, 1],
            "hamiltonian": {"xi": 3},
            "numeric": {"n_max": 20},
        }
        assert main(["--config", str(write_config(tmp_path, payload))]) == 2
        assert "['coloring', 'grid', 'hamiltonian', 'numeric', 'svg', 'window']" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"sweep"}))
    def test_only_sweep_writes_svg(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        payload = command_config(command, str(out), formats=["svg"])
        assert main(["--config", str(write_config(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "svg" in err
        assert not out.exists()


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

    def test_separatrix_points_table(self, tmp_path):
        # rel_dev_sq is |10 - 3.1^2| / 3.1^2, derived from the estimate itself
        pts = [CriticalPointEstimate(1, "max_rate", 3.1, 10.0)]
        path = _write_table(tmp_path / "pts.csv", CriticalPointEstimate, pts)
        assert path.read_text().splitlines()[1] == "1,max_rate,3.1,10,0.0405827263267"

    def test_integral_coupling_prints_as_the_equal_float(self, tmp_path):
        # 15 digits: %.12g prints -1.23456789012e+14 for the integer and the float
        outputs = []
        for name, eta in (("int", -123456789012345), ("float", -123456789012345.0)):
            payload = spectrum_config(str(tmp_path / name), hamiltonian={"eta": eta})
            assert main(["--config", str(write_config(tmp_path, payload)), "--threads", "1"]) == 0
            outputs.append((tmp_path / name / "spectrum.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1].startswith(b"-1.23456789012e+14,0,0,")

    def test_mod4_coloring_classes(self, tmp_path):
        plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5), fixed=HamiltonianSpec(xi4=0.1),
            n_max=15, n_probe=25,
        )
        path = emit_csv(run_sweep(plan), tmp_path / "m4.csv", coloring="mod4")
        classes = {ln.split(",")[6] for ln in path.read_text().splitlines()[1:]}
        assert classes == {"0", "1", "2", "3"}

    def test_coloring_modulus_mismatch(self, tmp_path):
        # gcd(3, 2) = 1: a mod3 coloring of parity sectors is the single class "all"
        plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5), fixed=HamiltonianSpec(xi=1.0),
            n_max=15, n_probe=25,
        )
        path = emit_csv(run_sweep(plan), tmp_path / "x.csv", coloring="mod3")
        assert {ln.split(",")[6] for ln in path.read_text().splitlines()[1:]} == {"all"}

    @pytest.mark.parametrize("emit", ["csv", "svg"])
    def test_unknown_coloring_refused(self, emit, tmp_path):
        # an unknown name used to surface as a KeyError from the palette lookup
        plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5), fixed=HamiltonianSpec(xi=1.0),
            n_max=15, n_probe=25,
        )
        grid, path = run_sweep(plan), tmp_path / f"bogus.{emit}"
        with pytest.raises(ValueError, match=r"one of \('parity', 'mod3', 'mod4'\)"):
            if emit == "csv":
                emit_csv(grid, path, coloring="bogus")
            else:
                emit_svg(grid, SvgStyle(), path, coloring="bogus")
        assert not path.exists()

    @pytest.mark.parametrize("max_levels", [0, -1, 2.5, True])
    def test_level_cap_below_one_refused(self, max_levels, tmp_path):
        # such a cap used to write a header-only table without a word
        plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5), fixed=HamiltonianSpec(xi=1.0),
            n_max=15, n_probe=25,
        )
        path = tmp_path / "capped.csv"
        with pytest.raises(ValueError, match="^max_levels must be a positive integer"):
            emit_csv(run_sweep(plan), path, max_levels=max_levels)
        assert not path.exists()


# name -> (fixed couplings of an eta sweep, its sector modulus)
COLORED_HAMILTONIANS = {
    "xi": ({"xi": 1.0}, 2),
    "xi3": ({"xi3": 0.3}, 3),
    "xi4": ({"xi4": 0.05}, 4),
    "xi + xi3": ({"xi": 1.0, "xi3": 0.1}, 1),
    "diagonal": ({}, MOD_ALL),
}


class TestColorClasses:
    """A sector's class is its residue mod gcd(d, k), d the coloring's divisor and k
    the modulus (gcd(d, 0) = d), named even/odd under parity, or "all" where the gcd is 1."""

    @pytest.mark.parametrize("coloring", COLORINGS)
    @pytest.mark.parametrize("hamiltonian", sorted(COLORED_HAMILTONIANS))
    def test_class_is_the_residue_mod_the_gcd(self, hamiltonian, coloring, tmp_path):
        fixed, k = COLORED_HAMILTONIANS[hamiltonian]
        plan = SweepPlan(varying="eta", grid=(0.0, 0.5), fixed=HamiltonianSpec(**fixed),
                         n_max=15, n_probe=25)
        grid = run_sweep(plan)
        assert grid.plan.modulus == k
        g = math.gcd({"parity": 2, "mod3": 3, "mod4": 4}[coloring], k)
        names = ("even", "odd") if coloring == "parity" else ("0", "1", "2", "3")
        path = emit_csv(grid, tmp_path / "classes.csv", coloring)
        rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
        for row in rows:
            assert row[6] == ("all" if g == 1 else names[int(row[1]) % g]), row
        assert len({row[6] for row in rows}) == min(g, len(grid.residues))

    # configs whose sector modulus is coprime to the coloring's divisor
    RUNS = {
        "mod3 coloring of a parity sweep": lambda d: sweep_config(d, coloring="mod3"),
        "mod3 coloring of a parity spectrum": lambda d: spectrum_config(d, coloring="mod3"),
        "xi3 sweep without coloring": lambda d: sweep_config(
            d, hamiltonian={"xi3": 0.3}, output={"directory": d, "formats": ["csv", "svg"]}
        ),
        "xi + xi3 spectrum": lambda d: spectrum_config(d, hamiltonian={"xi": 1.0, "xi3": 0.1}),
    }

    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_runs_as_one_class(self, case, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.RUNS[case](str(out)))
        assert main(["--config", str(cfg), "--threads", "1"]) == 0
        (csv,) = out.glob("*.csv")
        assert {ln.split(",")[6] for ln in csv.read_text().splitlines()[1:]} == {"all"}
        for svg in out.glob("*.svg"):
            assert f'stroke="{_ALL_COLOR}"' in svg.read_text()


class TestSvg:
    def test_flat_level_single_polyline(self, tmp_path):
        # at eta <= 0 the vacuum is the undriven ground state: its excitation stays 0
        plan = SweepPlan(
            varying="eta", grid=(-1.0, -0.5, 0.0), fixed=HamiltonianSpec(),
            n_max=6, n_probe=12,
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

    def test_y_max_below_every_level(self, tmp_path):
        # excitation energies start at 0, so y_max -2 once made a zero-height frame
        plan = SweepPlan(varying="eta", grid=(0.0, 0.5), fixed=HamiltonianSpec(xi=1.0),
                         n_max=10, n_probe=20)
        text = emit_svg(run_sweep(plan), SvgStyle(y_max=-2.0), tmp_path / "y.svg").read_text()
        assert text.count("<polyline") == 11 and "nan" not in text

    def test_mod3_shades(self, tmp_path):
        plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5), fixed=HamiltonianSpec(xi3=0.1),
            n_max=15, n_probe=25,
        )
        text = emit_svg(
            run_sweep(plan), SvgStyle(max_levels=2), tmp_path / "m3.svg", coloring="mod3"
        ).read_text()
        assert all(color in text for color in ("#1b7837", "#5aae61", "#a6dba0"))


    # y ranges a few ulps wide, where a running tick sum stops moving
    NARROW_RANGES = {
        "two ulps at 1": (1.0, 1.0000000000000002),
        "two ulps at 1e16": (1e16, 1.0000000000000004e16),
    }

    @pytest.mark.parametrize("case", sorted(NARROW_RANGES))
    def test_narrow_y_range_exits_0(self, case, tmp_path):
        y_min, y_max = self.NARROW_RANGES[case]
        payload = sweep_config(
            str(tmp_path), output={"directory": str(tmp_path), "formats": ["csv", "svg"]},
            svg={"y_min": y_min, "y_max": y_max},
        )
        assert main(["--config", str(write_config(tmp_path, payload)), "--threads", "1"]) == 0
        ticks = [ln for ln in (tmp_path / "sweep.svg").read_text().splitlines()
                 if 'text-anchor="end"' in ln]
        assert 1 <= len(ticks) <= 11
        assert len(_nice_ticks(y_min, y_max)) == len(ticks)

    def test_subnormal_wide_grid_draws_one_x_tick(self, tmp_path):
        # a grid too narrow for a normal float tick step gets the one tick at its start
        payload = sweep_config(
            str(tmp_path), hamiltonian={"xi": 1.0}, numeric={"n_max": 20, "n_probe": 40},
            grid={"varying": "eta", "start": 0.0, "stop": 2e-310, "step": 1e-310},
            output={"directory": str(tmp_path), "formats": ["csv", "svg"]},
        )
        assert main(["--config", str(write_config(tmp_path, payload)), "--threads", "1"]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len({row.split(",")[0] for row in rows}) == 3
        ticks = [ln for ln in (tmp_path / "sweep.svg").read_text().splitlines()
                 if 'text-anchor="middle"' in ln]
        assert len(ticks) == 1

    def test_y_range_that_overflows_the_pixel_scale_exits_3(self, tmp_path, capsys):
        # levels up to about 100 lie 1e308 range widths above a range 1e-306
        # wide, beyond the largest float once scaled to pixels
        out = tmp_path / "out"
        payload = sweep_config(
            str(out), output={"directory": str(out), "formats": ["csv", "svg"]},
            svg={"y_min": 0, "y_max": 1e-306},
        )
        assert main(["--config", str(write_config(tmp_path, payload)), "--threads", "1"]) == 3
        assert "svg y range 0.0 to 1e-306 is too narrow" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_y_range_beyond_single_precision_coordinates_exits_3(self, tmp_path, capsys):
        # a range 1e-300 wide puts levels near 100 at pixel coordinates near
        # 1e302: finite, but beyond the single-precision range of SVG numbers
        out = tmp_path / "out"
        payload = sweep_config(
            str(out), output={"directory": str(out), "formats": ["csv", "svg"]},
            svg={"y_min": 0, "y_max": 1e-300},
        )
        assert main(["--config", str(write_config(tmp_path, payload)), "--threads", "1"]) == 3
        assert "svg y range 0.0 to 1e-300 is too narrow" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @staticmethod
    def running_sum_ticks(lo, hi):
        """The ticks as a running sum once made them (it never ends where t += step stalls)."""
        raw = (hi - lo) / 5
        mag = 10.0 ** math.floor(math.log10(raw))
        step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
        ticks, t = [], math.ceil(lo / step) * step
        while t <= hi + 1e-9 * step:
            ticks.append(round(t, 12))
            t += step
        return ticks

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, 60.0), (0.0, 12.0), (0.0, 1.0), (-0.3, 0.45), (-1.0, 2.0), (0.15, 9.85),
         (-3.0e12, 4.1e12), (1e-7, 3.3e-7), (0.0, 651234.5), (-400.2, 0.0)],
    )
    def test_ticks_by_index_match_the_running_sum(self, lo, hi):
        # the pinned diagonal SVG and the README sweep SVG keep their axes
        assert _nice_ticks(lo, hi) == self.running_sum_ticks(lo, hi)

    INVALID_STYLES = {
        "y_min above y_max": dict(y_min=10.0, y_max=0.0),
        "empty y range": dict(y_min=1.0, y_max=1.0),
        "y range below a normal float": dict(y_min=0.0, y_max=5e-324),
        "y range wider than a float": dict(y_min=-1e308, y_max=1e308),
        "NaN y_max": dict(y_min=0.0, y_max=math.nan),
        # an end on its own was once taken unchecked
        "y_min not a number": dict(y_min="a"),
        "NaN y_min on its own": dict(y_min=math.nan),
        "y_min true": dict(y_min=True),
        "infinite y_max on its own": dict(y_max=math.inf),
        "max_levels zero": dict(max_levels=0),
        "max_levels fractional": dict(max_levels=2.5),
        "max_levels true": dict(max_levels=True),
        "unknown separatrix": dict(separatrices=("kerr", "bogus")),
    }

    @pytest.mark.parametrize("case", sorted(INVALID_STYLES))
    def test_invalid_style_refused(self, case):
        with pytest.raises(ValueError):
            SvgStyle(**self.INVALID_STYLES[case])


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

    def test_spectrum_with_higher_order_terms(self, tmp_path):
        higher = {"cubic4": 0.001, "squeeze3": 0.01}
        payload = spectrum_config(str(tmp_path / "ho"))
        payload["hamiltonian"]["higher_order"] = higher
        assert run(load_config(write_config(tmp_path, payload))) == 0
        spec = HamiltonianSpec(eta=0.0, xi=1.0, higher=HigherOrderCorrections(**higher))
        want = converged_spectrum(spec, 30, 45)
        lines = (tmp_path / "ho" / "spectrum.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[3] for r in rows] == [format(e, ".12g") for e in want.energies.tolist()]
        assert [r[4] for r in rows] == [format(x, ".12g") for x in want.excitations.tolist()]
        plain = converged_spectrum(HamiltonianSpec(eta=0.0, xi=1.0), 30, 45)
        assert not np.array_equal(want.energies, plain.energies)

    def test_empty_higher_order_writes_the_same_bytes(self, tmp_path):
        outputs = []
        for name, ham in (("without", {"xi": 1.0}), ("empty", {"xi": 1.0, "higher_order": {}})):
            payload = spectrum_config(str(tmp_path / name), hamiltonian=ham)
            assert run(load_config(write_config(tmp_path, payload))) == 0
            outputs.append((tmp_path / name / "spectrum.csv").read_bytes())
        assert outputs[0] == outputs[1]

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
            "numeric": {"n_max": 60},
            "grid": {"varying": "eta", "start": 0.1, "stop": 0.2, "step": 0.1},
            "track": {"eta0": 2, "pair": [1, 0, 2, 0]},
            "output": {"directory": str(tmp_path)},
        }
        with pytest.raises(ConfigError, match=r"track grid must vary one of .*, not 'eta'"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize(
        "varying, coupling, pair", [("xi", "P2", (0, 0, 1, 0)), ("xi3", "P3", (1, 0, 2, 0)),
                                    ("xi4", "P4", (1, 0, 2, 0)), ("xi2p", "nP2", (0, 0, 1, 0))],
    )
    def test_track_follows_the_coupling_its_grid_varies(self, varying, coupling, pair, tmp_path):
        payload = track_at_n_max_40(str(tmp_path / "out"), varying=varying, pair=list(pair))
        assert main(["--config", str(write_config(tmp_path, payload))]) == 0
        expected = _write_table(tmp_path / "expected.csv", TrackedCrossing, track_crossing_location(
            LevelPair(*pair), coupling, (0.1, 0.2), 2, n_max=40))
        assert (tmp_path / "out" / "track.csv").read_bytes() == expected.read_bytes()

    @staticmethod
    def _track_rows(tmp_path, higher: dict, eta0: int, pair: list, stop: float = 2.0) -> list:
        payload = track_config(str(tmp_path / "out"), eta0=eta0, pair=pair)
        payload["hamiltonian"] = {"higher_order": higher}
        payload["numeric"] = {"n_max": 200, "n_probe": 250}
        payload["grid"] = {"varying": "xi", "start": 0.5, "stop": stop, "step": 0.5}
        assert main(["--config", str(write_config(tmp_path, payload))]) == 0
        lines = (tmp_path / "out" / "track.csv").read_text().splitlines()
        assert lines[0] == "coupling_value,eta_star,found,gap,converged"
        return [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]

    @pytest.mark.parametrize(
        "term, eta0, pair, shift",
        [("kerr3", 2, [0, 0, 1, 0], -2e-3), ("kerr3", 6, [0, 3, 1, 3], -6e-3),
         ("detuning3", 2, [0, 0, 1, 0], -1e-3), ("detuning3", 6, [0, 3, 1, 3], -1e-3)],
    )
    def test_track_follows_a_higher_order_shift(self, term, eta0, pair, shift, tmp_path):
        # P2 pins the pair at eta = eta0 at every xi.  detuning3 adds lambda to
        # eta, and kerr3 scales H by 1 - lambda with eta / (1 - lambda) and
        # xi / (1 - lambda) inside, so the pin moves to eta0 - lambda and to
        # eta0 (1 - lambda): -eta0 lambda
        rows = self._track_rows(tmp_path, {term: 1e-3}, eta0, pair)
        assert [float(r["coupling_value"]) for r in rows] == [0.5, 1.0, 1.5, 2.0]
        for r in rows:
            assert (r["found"], r["converged"]) == ("1", "1")
            assert float(r["eta_star"]) == pytest.approx(eta0 + shift, abs=1e-9)

    def test_track_over_an_unbounded_spectrum_is_not_converged(self, tmp_path):
        # cubic4 > 0 makes H unbounded below past a barrier near n = 2 / (3 cubic4),
        # about 133.  The n_max 200 basis ends before the diagonal turns below the
        # well, so the pair crosses; at n_probe 250 the lowest level of each
        # sector lies past the barrier, thousands below
        rows = self._track_rows(tmp_path, {"cubic4": 0.005}, 2, [0, 0, 1, 0], stop=1.0)
        assert [(r["found"], r["converged"]) for r in rows] == [("1", "0")] * 2

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_coupling_is_a_numeric_failure(self, tmp_path, capsys):
        # a finite eta whose diagonal -eta n overflows once the basis is assembled
        payload = {**spectrum_config(str(tmp_path)), "hamiltonian": {"eta": 1e308}}
        assert run(load_config(write_config(tmp_path, payload))) == 3
        assert capsys.readouterr().err == (
            "numeric failure: non-finite entries on diagonal 0\n"
        )

    def test_other_errors_are_not_numeric_failures(self, tmp_path, monkeypatch, capsys):
        def broken(cfg, csv_path):
            raise ValueError("a defect, not a property of the configuration")

        sections, _ = _COMMANDS["casimir"]
        monkeypatch.setitem(_COMMANDS, "casimir", (sections, broken))
        cfg = write_config(tmp_path, command_config("casimir", str(tmp_path / "out")))
        with pytest.raises(ValueError, match="a defect"):
            main(["--config", str(cfg)])
        assert "numeric failure" not in capsys.readouterr().err

    def test_y_range_accepted_when_ordered(self, tmp_path):
        for svg in ({"y_min": 0, "y_max": 60}, {"y_min": 1e3}, {"y_max": -2.0}):
            style = load_config(write_config(tmp_path, sweep_config(".", svg=svg))).svg_style
            assert (style.y_min, style.y_max) == (svg.get("y_min"), svg.get("y_max"))

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

    def test_crossings_without_events_keeps_its_header(self, tmp_path):
        payload = {
            "schema_version": 1,
            "command": "crossings",
            "hamiltonian": {"eta": 0.0, "xi": 0.05},
            "numeric": {"n_max": 30, "n_probe": 45},
            "grid": {"varying": "eta", "start": 0.5, "stop": 0.7, "step": 0.1},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "crossings.csv").read_text().splitlines() == [
            "kind,param_value,residue_a,index_a,residue_b,index_b,min_gap"
        ]

    def test_library_warnings_print_one_line_each(self, tmp_path, capsys):
        # a P4 scan at a basis too small for it: 4 levels of its 3 crossings are
        # unconverged near them, and each raises an UnconvergedCrossingWarning
        payload = {
            "schema_version": 1,
            "command": "crossings",
            "hamiltonian": {"xi4": 0.1},
            "numeric": {"n_max": 20, "n_probe": 40},
            "grid": {"varying": "eta", "start": 0.05, "stop": 2.05, "step": 0.1},
        }
        cfg = write_config(tmp_path, payload)
        shown = warnings.showwarning
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert warnings.showwarning is shown  # the caller's own setting is back
        assert len((tmp_path / "out" / "crossings.csv").read_text().splitlines()) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 4
        for line in lines:
            assert line.startswith("warning: UnconvergedCrossingWarning: crossing near param=")
            assert ".py:" not in line


def _fmt(x) -> str:
    """One CSV field formatted by the type of its value, as the table writer once did."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return format(float(x), ".12g")


# record type -> (header, row of one record), as the tables were once written
_ORACLE_TABLES = {
    CrossingEvent: (
        "kind,param_value,residue_a,index_a,residue_b,index_b,min_gap",
        lambda e: (e.kind, e.param_value, *e.level_pair, e.min_gap),
    ),
    CriticalPointEstimate: (
        "v,method,xi_c,E_c,rel_dev_sq",
        lambda e: (e.v, e.method, e.xi_c, e.E_c, abs(e.E_c - e.xi_c**2) / e.xi_c**2),
    ),
    CasimirLevel: ("v,pi_prime,casimir_value", lambda e: (e.v, e.pi_prime, e.value)),
    TrackedCrossing: (
        "coupling_value,eta_star,found,gap,converged",
        lambda e: (
            e.coupling_value, e.eta_star, 1 if e.eta_star is not None else 0, e.gap, e.converged
        ),
    ),
}


def _oracle_table(kind, records) -> str:
    header, row = _ORACLE_TABLES[kind]
    return "\n".join([header, *(",".join(_fmt(x) for x in row(e)) for e in records)]) + "\n"


_REALS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e16, -1e16]),
    st.integers(-(10**15), 10**15).map(float),
    st.floats(),
)
_COUNTS = st.integers(0, 10**6)
# xi_c is nonzero and its square is a normal float, so that rel_dev is defined
_XI_C = st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150) | st.sampled_from([3.1, 1e16])
_RECORDS = {
    CrossingEvent: st.builds(
        CrossingEvent, _REALS, st.tuples(_COUNTS, _COUNTS, _COUNTS, _COUNTS), _REALS
    ),
    CriticalPointEstimate: st.builds(
        CriticalPointEstimate, _COUNTS,
        st.sampled_from(["max_rate", "linear_extrapolation", "difference_bound"]), _XI_C, _REALS,
    ),
    CasimirLevel: st.builds(CasimirLevel, _COUNTS, st.sampled_from([-1, 0, 1]), _REALS),
    TrackedCrossing: st.builds(
        TrackedCrossing, _REALS, st.none() | _REALS, _REALS, st.booleans()
    ),
}


class TestTableOracle:
    """Each record table's %-template rows hold the fields that per-type formatting gave."""

    def test_every_table_has_an_oracle(self):
        assert set(_TABLES) == set(_ORACLE_TABLES) == set(_RECORDS)

    @pytest.mark.parametrize("kind", sorted(_ORACLE_TABLES, key=lambda k: k.__name__))
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_table_lines(self, kind, data):
        records = data.draw(st.lists(_RECORDS[kind], max_size=6))
        if kind is TrackedCrossing:  # a lost crossing in every table
            records.append(TrackedCrossing(1.0, None, 2.0, False))
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_table(Path(tmp) / "table.csv", kind, records)
            assert path.read_text() == _oracle_table(kind, records)


UNBOUND_SPECTRUM = {
    "schema_version": 1,
    "command": "spectrum",
    "hamiltonian": {"xi4": 2.0},
    "numeric": {"n_max": 120, "n_probe": 160},
}


class TestNoConvergedLevels:
    """A spectrum, sweep or crossings scan with no converged level is a numeric failure."""

    def _main(self, tmp_path, payload, capsys):
        cfg = write_config(tmp_path, payload)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def test_unbound_spectrum_exits_three(self, tmp_path, capsys):
        code, err = self._main(tmp_path, UNBOUND_SPECTRUM, capsys)
        assert code == 3
        assert err.startswith("numeric failure: ") and "121 emitted levels" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "spectrum.csv").exists()

    def test_unbound_sweep_exits_three(self, tmp_path, capsys):
        payload = {
            **UNBOUND_SPECTRUM,
            "command": "sweep",
            "hamiltonian": {},
            "grid": {"varying": "xi4", "start": 1.0, "stop": 2.0, "step": 0.5},
            "coloring": "mod4",
            "output": {"formats": ["csv", "svg"]},
        }
        code, err = self._main(tmp_path, payload, capsys)
        assert code == 3
        assert err.startswith("numeric failure: ") and "363 emitted levels" in err
        assert "Traceback" not in err
        assert not any((tmp_path / "out").glob("sweep.*"))

    def test_unconverged_crossings_scan_exits_three(self, tmp_path, capsys):
        # none of the 12 levels scanned per sector is certified at any of the
        # 13 points, so every event would compare truncation artefacts
        payload = crossings_config(
            str(tmp_path / "out"),
            hamiltonian={"xi": 1.0, "xi4": 0.3},
            numeric={"n_max": 40, "n_probe": 60},
            grid={"varying": "eta", "start": 0.0, "stop": 6.0, "step": 0.5},
        )
        code, err = self._main(tmp_path, payload, capsys)
        assert code == 3
        assert err.startswith("numeric failure: ") and "312 emitted levels" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "crossings.csv").exists()

    @pytest.mark.parametrize("xi, n_max, n_probe", [(30.0, 10, 20), (1e154, 40, 60)])
    def test_small_basis_hint_names_n_max_first(self, tmp_path, capsys, xi, n_max, n_probe):
        # the Kerr term n(n - 1) outgrows the P2 drive, so this spectrum is
        # bounded below and only the basis is too small for it
        payload = {
            **UNBOUND_SPECTRUM,
            "hamiltonian": {"xi": xi},
            "numeric": {"n_max": n_max, "n_probe": n_probe},
        }
        code, err = self._main(tmp_path, payload, capsys)
        assert code == 3
        assert f"{n_max + 1} emitted levels" in err
        hint = err[err.index("("):]
        assert hint.index("raise numeric.n_max") < hint.index("bounded below")

    def test_converged_levels_still_exit_zero(self, tmp_path, capsys):
        bound = {**UNBOUND_SPECTRUM, "hamiltonian": {"xi4": 0.0, "xi": 1.0}}
        assert self._main(tmp_path, bound, capsys)[0] == 0
        assert self._main(tmp_path, sweep_config(str(tmp_path)), capsys)[0] == 0

    def test_empty_window_is_not_a_failure(self, tmp_path, capsys):
        payload = {
            **UNBOUND_SPECTRUM,
            "hamiltonian": {"eta": 4.0},
            "numeric": {"n_max": 20, "n_probe": 30},
            "window": [0.5, 1.5],
        }
        assert self._main(tmp_path, payload, capsys)[0] == 0
        assert (tmp_path / "out" / "spectrum.csv").read_text().splitlines() == [
            "param,sector_residue,level_index,energy,excitation_energy,converged,color_class"
        ]


def _oracle_csv(grid, coloring, max_levels):
    """The grid CSV formatted one value at a time, as the writer once did."""
    lines = [
        "param,sector_residue,level_index,energy,excitation_energy,converged,color_class"
    ]
    for g, param in enumerate(grid.params):
        for r in grid.residues:
            absolute, excitation = grid.absolute(r), grid.curves[r]
            stop = absolute.shape[1] if max_levels is None else min(max_levels, absolute.shape[1])
            for lvl in range(stop):
                lines.append(",".join([
                    format(float(param), ".12g"),
                    str(r),
                    str(lvl),
                    format(float(absolute[g, lvl]), ".12g"),
                    format(float(excitation[g, lvl]), ".12g"),
                    "1" if grid.converged[r][g, lvl] else "0",
                    _color_class(coloring, r, grid.plan.modulus),
                ]))
    return ("\n".join(lines) + "\n").encode()


def _oracle_svg(grid, style, coloring):
    """The SVG with every polyline point scaled and formatted on its own."""
    w, h, m = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN
    x = grid.params
    x_lo, x_hi = float(x[0]), float(x[-1])
    curves = []
    for r in grid.residues:
        data = grid.curves[r]
        stop = data.shape[1] if style.max_levels is None else min(style.max_levels, data.shape[1])
        palette = {**_PALETTES[coloring], "all": _ALL_COLOR}
        color = palette[_color_class(coloring, r, grid.plan.modulus)]
        curves.extend((color, data[:, lvl]) for lvl in range(stop))
    y_lo = style.y_min if style.y_min is not None else min(float(c.min()) for _, c in curves)
    y_hi = style.y_max if style.y_max is not None else max(float(c.max()) for _, c in curves)

    def sx(v):
        return m + (v - x_lo) / (x_hi - x_lo) * (w - 2 * m)

    def sy(v):
        return h - m - (v - y_lo) / (y_hi - y_lo) * (h - 2 * m)

    def polyline(ys, look):
        pts = " ".join(f"{sx(float(px)):.2f},{sy(float(py)):.2f}" for px, py in zip(x, ys))
        return f'<polyline points="{pts}" fill="none" {look} clip-path="url(#frame)"/>'

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
        parts.append(f'<line x1="{m - 6}" y1="{py:.2f}" x2="{m}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{m - 10}" y="{py + 4:.2f}" font-size="13" text-anchor="end">{t:.6g}</text>'
        )
    parts.append(
        f'<clipPath id="frame"><rect x="{m}" y="{m}" width="{w - 2 * m}" '
        f'height="{h - 2 * m}"/></clipPath>'
    )
    parts.extend(polyline(ys, f'stroke="{color}" stroke-width="1.2"') for color, ys in curves)
    for kind in style.separatrices:
        model = SeparatrixModel(kind)
        if grid.plan.varying == "eta":
            ys = model.evaluate(eta=x, xi=grid.plan.fixed.xi)
        else:
            ys = model.evaluate(eta=grid.plan.fixed.eta, xi=x)
        parts.append(polyline(ys, 'stroke="black" stroke-width="1.4" stroke-dasharray="8 5"'))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


BOTH_SEPARATRICES = ("combined", "combined_prime")

# name -> (sweep plan, coloring, max_levels, SVG style)
ORACLE_CASES = {
    "parity excitation, y range set": (
        dict(varying="eta", grid=np.arange(0.0, 3.01, 0.1), fixed=HamiltonianSpec(xi=1.0)),
        "parity", None, SvgStyle(y_min=0.0, y_max=12.0, separatrices=BOTH_SEPARATRICES),
    ),
    "parity, y range unset": (
        dict(varying="eta", grid=np.arange(-1.0, 2.01, 0.15), fixed=HamiltonianSpec(xi=0.7)),
        "parity", None, SvgStyle(separatrices=BOTH_SEPARATRICES),
    ),
    "max_levels below the block size": (
        dict(varying="xi", grid=np.arange(0.0, 2.01, 0.125), fixed=HamiltonianSpec(eta=1.3)),
        "parity", 4, SvgStyle(max_levels=4, y_max=20.0, separatrices=BOTH_SEPARATRICES),
    ),
    "max_levels above the block size": (
        dict(varying="eta", grid=np.arange(0.0, 2.01, 0.25), fixed=HamiltonianSpec(xi=2.0)),
        "parity", 500, SvgStyle(max_levels=500),
    ),
    "mod4 coloring": (
        dict(varying="xi4", grid=np.arange(0.0, 0.41, 0.05), fixed=HamiltonianSpec(eta=0.5)),
        "mod4", None, SvgStyle(y_min=-1.0),
    ),
    "mod3 coloring of a parity sweep": (
        dict(varying="eta", grid=np.arange(0.0, 2.01, 0.25), fixed=HamiltonianSpec(xi=1.0)),
        "mod3", 6, SvgStyle(max_levels=6),
    ),
    "MOD_ALL diagonal sweep": (
        dict(varying="eta", grid=np.arange(0.0, 4.01, 0.2)),
        "parity", 1, SvgStyle(max_levels=1, separatrices=BOTH_SEPARATRICES),
    ),
    "P3 sweep, every sector all": (
        dict(varying="eta", grid=np.arange(0.0, 2.01, 0.25), fixed=HamiltonianSpec(xi3=0.3)),
        "parity", None, SvgStyle(max_levels=8, separatrices=BOTH_SEPARATRICES),
    ),
}


class TestWriterOracle:
    """The array writers produce the bytes of per-value formatting."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_csv_and_svg_bytes(self, case, tmp_path):
        plan_kwargs, coloring, max_levels, style = ORACLE_CASES[case]
        grid = run_sweep(SweepPlan(n_max=36, n_probe=50, **plan_kwargs))
        if case == "MOD_ALL diagonal sweep":
            assert grid.plan.modulus == MOD_ALL
        csv = emit_csv(grid, tmp_path / "grid.csv", coloring, max_levels)
        assert csv.read_bytes() == _oracle_csv(grid, coloring, max_levels)
        svg = emit_svg(grid, style, tmp_path / "grid.svg", coloring)
        assert svg.read_bytes() == _oracle_svg(grid, style, coloring)

    def test_energies_beyond_1e12_print_in_exponent_form(self, tmp_path):
        # E0 = -2.5e12 and excitations up to 4.1e12: %.12g switches to e+12 on both signs
        params = np.arange(7) * 0.5
        plan = SweepPlan(varying="eta", grid=tuple(params), fixed=HamiltonianSpec(xi=1.0))
        ramp = np.arange(12) * 3.7123456789013e11 + params[:, None] * 1.1e-3
        curves = {0: ramp[:, 0::2].copy(), 1: ramp[:, 1::2].copy()}
        flags = {r: (c < 2e12) for r, c in curves.items()}
        grid = SpectrumGrid(plan, curves, flags, -2.5e12 + params * 1e9)
        csv = emit_csv(grid, tmp_path / "big.csv")
        assert csv.read_bytes() == _oracle_csv(grid, "parity", None)
        text = csv.read_text()
        assert "e+12," in text and ",-2.5e+12," in text
        style = SvgStyle(separatrices=BOTH_SEPARATRICES)
        svg = emit_svg(grid, style, tmp_path / "big.svg")
        assert svg.read_bytes() == _oracle_svg(grid, style, "parity")

    def test_svg_is_streamed(self, tmp_path):
        # the README sweep's shape with every level: 241 points, 401 + 400 levels
        params = np.arange(241) * 0.05
        plan = SweepPlan(varying="eta", grid=tuple(params), fixed=HamiltonianSpec(xi=1.0))
        ramp = np.arange(801) * 0.075 + params[:, None] * 0.2
        curves = {0: ramp[:, 0::2].copy(), 1: ramp[:, 1::2].copy()}
        flags = {r: np.ones(c.shape, dtype=bool) for r, c in curves.items()}
        grid = SpectrumGrid(plan, curves, flags, np.zeros(len(params)))
        style = SvgStyle(y_min=0.0, y_max=60.0, separatrices=BOTH_SEPARATRICES)
        tracemalloc.start()
        try:
            svg = emit_svg(grid, style, tmp_path / "full.svg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        assert svg.read_bytes() == _oracle_svg(grid, style, "parity")

    def test_flat_separatrix_overlay(self, tmp_path):
        # "kerr" does not depend on xi: the overlay is a horizontal line
        plan = SweepPlan(varying="xi", grid=(0.0, 0.5, 1.0), fixed=HamiltonianSpec(eta=2.0),
                         n_max=10, n_probe=20)
        style = SvgStyle(max_levels=1, separatrices=("kerr",))
        text = emit_svg(run_sweep(plan), style, tmp_path / "k.svg").read_text()
        dashed = [ln for ln in text.splitlines() if "stroke-dasharray" in ln]
        pts = dashed[0].split('points="')[1].split('"')[0].split()
        assert len(pts) == 3 and len({p.split(",")[1] for p in pts}) == 1

    def test_separatrix_overlay_of_an_other_coupling_sweep(self, tmp_path):
        # a xi4 sweep at fixed xi = 3 draws "squeeze" flat at xi^2 = 9, not at xi4^2
        plan = SweepPlan(varying="xi4", grid=(0.0, 0.05, 0.1), fixed=HamiltonianSpec(xi=3.0),
                         n_max=20, n_probe=30)
        style = SvgStyle(max_levels=1, y_min=0.0, y_max=20.0, separatrices=("squeeze",))
        text = emit_svg(run_sweep(plan), style, tmp_path / "s.svg").read_text()
        dashed = [ln for ln in text.splitlines() if "stroke-dasharray" in ln]
        pts = dashed[0].split('points="')[1].split('"')[0].split()
        assert [p.split(",")[1] for p in pts] == ["345.00"] * 3  # 640 - 70 - 9 / 20 * 500


# Fields of a small valid config and what a mutation may put there; None in
# a draw deletes the field.  Grid and basis values stay small so that every
# example runs in milliseconds.
_NUMBERS = st.one_of(
    st.floats(-4.0, 4.0), st.integers(-3, 5), st.sampled_from([math.nan, math.inf, -math.inf])
)
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["a", "n_max"]), st.integers(0, 3), max_size=1),
)
_FIELDS = {
    ("schema_version",): st.sampled_from([1, 2, "1"]),
    ("command",): st.sampled_from(COMMANDS + ("warp",)),
    ("hamiltonian",): _JUNK,
    ("hamiltonian", "eta"): _NUMBERS,
    ("hamiltonian", "xi"): _NUMBERS,
    ("hamiltonian", "xi3"): _NUMBERS,
    ("hamiltonian", "xi4"): st.one_of(_NUMBERS, st.just(2.0)),
    ("hamiltonian", "kappa"): _NUMBERS,
    ("numeric",): _JUNK,
    ("numeric", "n_max"): st.one_of(st.integers(-2, 40), st.sampled_from([12.5, "20"])),
    ("numeric", "n_probe"): st.one_of(st.integers(-2, 60), st.none()),
    ("numeric", "tol_conv"): st.one_of(_NUMBERS, st.just(1e-300), st.none()),
    ("grid",): _JUNK,
    ("grid", "varying"): st.sampled_from(["eta", "xi", "xi3", "xi4", "xi2p", "K", None]),
    ("grid", "start"): st.sampled_from([-1.0, 0.0, 0.5, 2.0, math.nan, math.inf, "0", None]),
    ("grid", "stop"): st.sampled_from([0.0, 1.0, 2.0, 1.7, math.nan, -math.inf, None]),
    ("grid", "step"): st.sampled_from([0.5, 0.25, 1.0, 0.3, 0.0, -0.5, math.inf, None]),
    ("normalize",): st.sampled_from(["absolute", "excitation", "log", None]),
    ("coloring",): st.sampled_from(COLORINGS + ("rainbow", None)),
    ("window",): st.one_of(st.lists(_NUMBERS, max_size=3), _JUNK),
    ("output", "formats"): st.one_of(
        st.lists(st.sampled_from(["csv", "svg", "pdf"]), max_size=3), _JUNK
    ),
    ("svg",): _JUNK,
    ("svg", "max_levels"): st.one_of(st.integers(-1, 8), st.none()),
    ("svg", "y_min"): st.one_of(_NUMBERS, st.none()),
    ("svg", "y_max"): st.one_of(_NUMBERS, st.none()),
    ("svg", "separatrices"): st.one_of(
        st.lists(st.sampled_from(SeparatrixModel._KINDS + ("bogus",)), max_size=3), _JUNK
    ),
    ("track",): _JUNK,
    ("track", "coupling"): st.sampled_from(["P2", "P3", "P4", "nP2", "P9", None]),
    ("track", "eta0"): st.one_of(st.integers(-1, 6), st.none()),
    ("track", "pair"): st.lists(st.sampled_from([0, 1, 2, 5, 10, 11, 99]), min_size=4, max_size=4),
    ("casimir", "N"): st.one_of(st.integers(-1, 12), _JUNK),
    ("esqpt", "v_max"): st.one_of(st.integers(-1, 12), st.sampled_from([2.5, "3"]), st.none()),
    ("crossings", "max_levels"): st.one_of(
        st.integers(-1, 30), st.sampled_from([2.5, "3"]), st.none()
    ),
}


def _fuzz_base(command: str) -> dict:
    """A valid ``command`` config holding only the sections that command reads."""
    cfg = sweep_config(".", output={"formats": ["csv", "svg"]}, svg={"separatrices": ["combined"]})
    cfg["numeric"] = {"n_max": 20, "n_probe": 30}
    cfg["command"] = command
    if command != "sweep":
        del cfg["svg"]
        cfg["output"] = {"formats": ["csv"]}
    if command in ("spectrum", "casimir"):
        del cfg["grid"]
    if command == "track":
        cfg["hamiltonian"] = {}
        cfg["grid"] = {"varying": "xi", "start": 0.5, "stop": 2.0, "step": 0.5}
        cfg["track"] = {"eta0": 2, "pair": [0, 0, 1, 0]}
    if command == "casimir":
        del cfg["hamiltonian"], cfg["numeric"]
        cfg["casimir"] = {"N": 12}
    if command == "esqpt":
        # at tol_conv 1e-8 the v = 1 pair leaves this basis before its gap closes
        cfg["hamiltonian"] = {"eta": 0.0}
        cfg["numeric"]["tol_conv"] = 0.01
        cfg["grid"] = {"varying": "xi", "start": 0.0, "stop": 6.0, "step": 0.25}
        cfg["esqpt"] = {"v_max": 2}
    if command == "crossings":
        cfg["crossings"] = {"max_levels": 4}
    return cfg


def _mutate(cfg: dict, path: tuple, value) -> None:
    section = cfg
    for key in path[:-1]:
        if not isinstance(section.get(key), dict):
            section[key] = {}
        section = section[key]
    if value is None:
        section.pop(path[-1], None)
    else:
        section[path[-1]] = value


_MUTATIONS = st.sampled_from(sorted(_FIELDS)).flatmap(
    lambda path: st.tuples(st.just(path), _FIELDS[path])
)


class TestExitCodeFuzz:
    # a mutated config may leave a located crossing uncertified, which warns
    # and still exits 0
    @pytest.mark.filterwarnings("ignore::kerrspec.classify.UnconvergedCrossingWarning")
    @settings(
        max_examples=300, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        command=st.sampled_from(["sweep", "spectrum", "track", "casimir", "crossings", "esqpt"]),
        mutations=st.lists(_MUTATIONS, min_size=1, max_size=2),
    )
    def test_mutated_configs_exit_cleanly(self, command, mutations):
        cfg = _fuzz_base(command)
        for path, value in mutations:
            _mutate(cfg, path, value)
        if command != "casimir":  # casimir reads no numeric section
            numeric = cfg.setdefault("numeric", {})
            if isinstance(numeric, dict):  # the default basis is far above this test's budget
                numeric.setdefault("n_max", 20)
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            argv = ["--config", str(path), "--threads", "1", "--out", str(Path(tmp) / "out")]
            with contextlib.redirect_stderr(stderr):
                code = main(argv)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in stderr.getvalue()

    @pytest.mark.parametrize(
        "path, value",
        [
            (("grid", "start"), math.inf),
            (("grid", "stop"), -math.inf),
            (("hamiltonian", "eta"), math.nan),
            (("svg", "y_min"), -math.inf),
            (("window",), [0.0, math.inf]),
            (("hamiltonian", "xi"), 10**400),
        ],
    )
    def test_non_finite_numbers_exit_two(self, path, value, tmp_path, capsys):
        cfg = _fuzz_base("spectrum" if path == ("window",) else "sweep")
        _mutate(cfg, path, value)
        config = write_config(tmp_path, cfg)
        assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
