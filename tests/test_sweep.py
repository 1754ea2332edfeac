import json
import math
import threading
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import kerrspec.classify
from kerrspec import cli
from kerrspec.classify import (
    LevelPair,
    UnrefinedCrossingWarning,
    check_track_pair,
    detect_crossings,
    kerr_exact_levels,
)
from kerrspec import converged_spectrum
from kerrspec.eigensolve import eigen
from kerrspec.fock import (
    COUPLING_DERIVATIVES,
    COUPLING_FIELDS,
    COUPLING_KINDS,
    HamiltonianSpec,
    HigherOrderCorrections,
    standard_hamiltonian,
)
from kerrspec.sectors import MOD_ALL, detect_modulus, sector_dim
from kerrspec.sweep import (
    CHUNK,
    _certified_levels,
    SweepPlan,
    plan_modulus,
    run_sweep,
    sector_blocks,
    spec_levels,
)


def small_plan(**overrides):
    base = dict(
        varying="eta",
        grid=tuple(0.25 * i for i in range(13)),
        fixed=HamiltonianSpec(xi=1.0),
        n_max=40,
        n_probe=60,
    )
    base.update(overrides)
    return SweepPlan(**base)


class TestSweepPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepPlan(varying="zeta", grid=(0.0, 1.0))
        with pytest.raises(ValueError):
            SweepPlan(varying="eta", grid=(0.0,))
        with pytest.raises(ValueError):
            SweepPlan(varying="eta", grid=(1.0, 0.5))
        with pytest.raises(ValueError):
            SweepPlan(varying="eta", grid=(0.0, np.inf))

    def test_modulus_combines_special_points(self):
        # the xi = 0 grid point is diagonal but must not break the parity split
        plan = SweepPlan(
            varying="xi", grid=(0.0, 0.5, 1.0), fixed=HamiltonianSpec(eta=2.0),
            n_max=20, n_probe=30,
        )
        assert plan_modulus(plan) == 2
        diag_only = SweepPlan(
            varying="eta", grid=(0.0, 1.0), fixed=HamiltonianSpec(), n_max=20, n_probe=30
        )
        assert plan_modulus(diag_only) == MOD_ALL

    @pytest.mark.parametrize("varying", COUPLING_FIELDS)
    def test_first_two_points_give_the_whole_grid_modulus(self, varying):
        # oracle: the gcd over every grid point, and over the first two.  Each pairing
        # coefficient vanishes at one field value at most: c below, where a higher-order
        # term cancels the swept one; the grid meets c first, second or later.  Some base
        # specs cancel a drive at ``fixed`` itself (xi 0.5, xi4 0.25, xi2p 0.75)
        higher = HigherOrderCorrections(squeeze3=0.5, number_squeeze3=0.75, quad_squeeze4=0.25)
        cancel = {"eta": 1.0, "xi": 0.5, "xi3": 0.0, "xi4": 0.25, "xi2p": 0.75}[varying]
        fixed_specs = [
            HamiltonianSpec(), HamiltonianSpec(xi=1.0), HamiltonianSpec(xi3=0.2),
            HamiltonianSpec(xi=1.0, xi3=0.2), HamiltonianSpec(xi4=0.1, xi2p=0.3),
            HamiltonianSpec(higher=higher), HamiltonianSpec(xi3=0.2, higher=higher),
            HamiltonianSpec(xi=0.5, higher=higher),
            HamiltonianSpec(xi=0.5, xi4=0.25, xi2p=0.75, higher=higher),
            HamiltonianSpec(xi=0.5, xi3=0.2, xi4=0.25, higher=higher),
        ]
        kinds = [kind for kind, f in COUPLING_KINDS.items() if f == varying]
        for fixed in fixed_specs:
            for at in (0, 1, 3):
                grid = tuple(cancel + 0.25 * (i - at) for i in range(6))
                plan = SweepPlan(varying=varying, grid=grid, fixed=fixed, n_max=4, n_probe=8)
                moduli = [detect_modulus(standard_hamiltonian(plan.spec_at(v))) for v in grid]
                every_point, first_two = math.gcd(*moduli), math.gcd(*moduli[:2])
                assert plan_modulus(plan) == every_point == first_two, (fixed, at)
                # a track of the drive whose field this plan varies shares its sectors
                # (P2 over the xi3 base spec conserves n mod gcd(2, 3) = 1 only)
                for kind in kinds:
                    k = check_track_pair(LevelPair(0, 0, 0, 1), kind, plan.n_max, fixed)
                    assert k == plan.modulus, (kind, fixed)

    @pytest.mark.parametrize(
        "fixed, k",
        [(HamiltonianSpec(), MOD_ALL), (HamiltonianSpec(xi=1.0), 2), (HamiltonianSpec(xi3=0.3), 3)],
    )
    def test_modulus_is_a_plain_int(self, fixed, k):
        plan = SweepPlan(varying="eta", grid=(0.0, 0.5), fixed=fixed, n_max=12, n_probe=20)
        moduli = (
            detect_modulus(standard_hamiltonian(fixed)),
            plan.modulus,
            converged_spectrum(plan.spec_at(0.5), n_max=12, n_probe=20).modulus,
        )
        for m in moduli:
            assert type(m) is int and m == k


class TestBasisSettings:
    """Plans and single points take n_probe's default and their basis checks from one rule."""

    def test_default_probe_grows_with_n_max(self):
        for n_max, n_probe in ((1000, 1125), (800, 900), (40, 90), (0, 50)):
            assert SweepPlan(varying="xi", grid=(0.0, 0.1), n_max=n_max).n_probe == n_probe
        assert SweepPlan(varying="xi", grid=(0.0, 0.1)).n_probe == 900

    def test_point_above_the_old_fixed_probe_runs(self):
        cs = converged_spectrum(HamiltonianSpec(xi=1.0), n_max=1000)
        assert cs.n_levels == 1001 and cs.n_converged > 100

    @pytest.mark.parametrize(
        "setting, numeric",
        [
            ("n_max", dict(n_max=-1)),
            ("n_max", dict(n_max=40.0)),
            ("n_probe", dict(n_max=40, n_probe=40)),
            ("tol_conv", dict(tol_conv=-1.0)),
            ("tol_conv", dict(tol_conv=math.nan)),
            ("tol_conv", dict(tol_conv=math.inf)),
            ("n_probe", dict(n_max=40, n_probe=60.5)),
            ("n_probe", dict(n_max=40, n_probe=60.0)),
            ("n_probe", dict(n_max=40, n_probe=True)),
            ("eta", dict(eta=math.nan)),
            ("xi", dict(xi=math.nan)),
            ("xi3", dict(xi3=math.nan)),
        ],
    )
    def test_bad_settings_raise_naming_them(self, setting, numeric):
        # a coupling key sets the plan's fixed spec and the point's spec
        spec = {k: v for k, v in numeric.items() if k in COUPLING_FIELDS}
        basis = {k: v for k, v in numeric.items() if k not in spec}
        with pytest.raises(ValueError, match=f"^{setting}"):
            SweepPlan(varying="xi", grid=(0.0, 0.1), fixed=HamiltonianSpec(**spec), **basis)
        with pytest.raises(ValueError, match=f"^{setting}"):
            converged_spectrum(HamiltonianSpec(**{"xi": 1.0, **spec}), **basis)


class TestRunSweep:
    def test_curves_ascend_within_sector(self):
        grid = run_sweep(small_plan())
        for r in grid.residues:
            assert np.all(np.diff(grid.curves[r], axis=1) >= 0)

    def test_excitation_normalization(self):
        grid = run_sweep(small_plan())
        minima = np.array(
            [min(grid.curves[r][g, 0] for r in grid.residues) for g in range(len(grid.params))]
        )
        np.testing.assert_array_equal(minima, np.zeros(len(grid.params)))
        for r in grid.residues:
            assert np.all(grid.curves[r] >= 0)

    def test_undriven_point_matches_exact_multiplet(self):
        plan = SweepPlan(
            varying="xi", grid=(0.0, 1e-3), fixed=HamiltonianSpec(eta=4.0),
            n_max=40, n_probe=60,
        )
        grid = run_sweep(plan)
        merged = np.sort(np.concatenate([grid.curves[r][0] for r in grid.residues]))
        exact = [lv.energy for lv in kerr_exact_levels(4)]
        np.testing.assert_array_equal(merged[:6], exact)

    def test_thread_count_does_not_change_bits(self):
        serial = run_sweep(small_plan(), threads=1)
        threaded = run_sweep(small_plan(), threads=4)
        for r in serial.residues:
            np.testing.assert_array_equal(serial.curves[r], threaded.curves[r])
            np.testing.assert_array_equal(serial.converged[r], threaded.converged[r])
        np.testing.assert_array_equal(serial.ground_energy, threaded.ground_energy)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_chunked_sweep_matches_pointwise_spectra(self, threads):
        # 37 points: two full chunks and a short one
        plan = small_plan(
            varying="xi", grid=tuple(0.1 * (i + 1) for i in range(37)),
            fixed=HamiltonianSpec(eta=1.0), n_max=30, n_probe=46,
        )
        assert len(plan.grid) % CHUNK != 0
        grid = run_sweep(plan, threads=threads)
        unconverged = 0
        for i, value in enumerate(plan.grid):
            cs = converged_spectrum(plan.spec_at(value), plan.n_max, plan.n_probe, plan.tol_conv)
            assert grid.ground_energy[i] == cs.ground_energy
            for r in grid.residues:
                np.testing.assert_array_equal(grid.curves[r][i], cs.excitations[cs.residues == r])
                np.testing.assert_array_equal(grid.converged[r][i], cs.converged[cs.residues == r])
            unconverged += int((~cs.converged).sum())
        assert unconverged > 0

    def test_threads_start_no_thread(self, monkeypatch, tmp_path):
        # sweeps run in the calling thread whatever threads says
        def refuse(self):
            raise AssertionError("a sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        plan = small_plan(grid=tuple(0.1 * i for i in range(CHUNK + 1)))  # two chunks
        serial = run_sweep(plan, threads=1)
        for threads in (0, 4):
            grid = run_sweep(plan, threads=threads)
            assert grid.residues == serial.residues
            for r in serial.residues:
                np.testing.assert_array_equal(grid.curves[r], serial.curves[r])
                np.testing.assert_array_equal(grid.converged[r], serial.converged[r])
            np.testing.assert_array_equal(grid.ground_energy, serial.ground_energy)
        with pytest.raises(ValueError, match="threads"):
            run_sweep(plan, threads=-5)

        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "schema_version": 1, "command": "sweep", "hamiltonian": {"xi": 1.0},
            "numeric": {"n_max": 40, "n_probe": 60},
            "grid": {"varying": "eta", "start": 0.0, "stop": 1.6, "step": 0.1},
        }))
        for threads in ("0", "4"):
            out = tmp_path / f"t{threads}"
            assert cli.main(["--config", str(config), "--out", str(out), "--threads", threads]) == 0
        csv = [(tmp_path / f"t{threads}" / "sweep.csv").read_bytes() for threads in ("0", "4")]
        assert csv[0] == csv[1]

    def test_convergence_flags_present(self):
        grid = run_sweep(small_plan(n_max=30, n_probe=45))
        assert all(grid.converged[r].shape == grid.curves[r].shape for r in grid.residues)


# case -> (a Hamiltonian, its sector modulus); together they drive every
# coupling field and every higher-order correction
ALL_HIGHER = HigherOrderCorrections(
    detuning3=0.1, kerr3=0.02, squeeze3=0.3, number_squeeze3=0.01,
    detuning4=-0.05, kerr4=0.01, cubic4=1e-3, quad_squeeze4=0.02,
)
LEADING_CASES = {
    "eta": (HamiltonianSpec(eta=1.3), MOD_ALL),
    "xi": (HamiltonianSpec(eta=1.3, xi=2.0), 2),
    "xi3": (HamiltonianSpec(eta=0.7, xi3=0.3), 3),
    "xi4": (HamiltonianSpec(eta=0.5, xi4=0.1), 4),
    "xi2p": (HamiltonianSpec(eta=1.3, xi2p=0.05), 2),
    "xi + xi3": (HamiltonianSpec(eta=1.0, xi=1.0, xi3=0.2), 1),
    "xi + xi4": (HamiltonianSpec(eta=2.0, xi=1.0, xi4=0.05), 2),
    "higher_order": (HamiltonianSpec(eta=2.0, xi=1.0, higher=ALL_HIGHER), 2),
    "higher_order, diagonal": (
        HamiltonianSpec(eta=2.0, higher=HigherOrderCorrections(kerr3=0.02, cubic4=1e-3)),
        MOD_ALL,
    ),
}


class TestOneBasisPerPoint:
    """A point's n_max blocks are the leading sub-blocks of its probe blocks."""

    def test_cases_cover_every_field_and_modulus(self):
        driven = {f for spec, _ in LEADING_CASES.values() for f in COUPLING_FIELDS if getattr(spec, f)}
        assert driven == set(COUPLING_FIELDS)
        assert {k for _, k in LEADING_CASES.values()} == {MOD_ALL, 1, 2, 3, 4}
        for spec, k in LEADING_CASES.values():
            assert detect_modulus(standard_hamiltonian(spec)) == k

    @pytest.mark.parametrize("case", sorted(LEADING_CASES))
    @pytest.mark.parametrize("n_max, n_probe", [(40, 60), (1, 5), (2, 9)])
    def test_leading_blocks_are_bit_equal(self, case, n_max, n_probe):
        spec, k = LEADING_CASES[case]
        poly = standard_hamiltonian(spec)
        main = sector_blocks(poly, n_max, k)
        probe = sector_blocks(poly, n_probe, k)
        kept = {r: sector_dim(n_max + 1, k, r) for r in probe if sector_dim(n_max + 1, k, r)}
        assert list(kept) == list(main)
        for r, dim in kept.items():
            lead, want = probe[r].leading(dim), main[r]
            assert (lead.dim, lead.bandwidth) == (want.dim, want.bandwidth)
            for got, ref in zip(lead.diagonals, want.diagonals, strict=True):
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "spec, k, n_max, residues",
        [
            (HamiltonianSpec(eta=1.0), MOD_ALL, 6, range(7)),  # probe has 12 one-state sectors
            (HamiltonianSpec(xi3=0.2), 3, 1, (0, 1)),  # residue 2 starts at n = 2
            (HamiltonianSpec(xi4=0.1), 4, 2, (0, 1, 2)),
        ],
    )
    def test_residues_empty_at_n_max_are_skipped(self, spec, k, n_max, residues):
        poly = standard_hamiltonian(spec)
        [(levels, flags)] = _certified_levels([poly], n_max, 11, k, 1e-8)
        assert list(levels) == list(flags) == list(residues)
        for r, block in sector_blocks(poly, n_max, k).items():
            assert levels[r].tobytes() == eigen(block).tobytes()


# case -> (a Hamiltonian, its sector modulus); the case names the field whose
# level slopes are checked there
SLOPE_CASES = {
    "eta": (HamiltonianSpec(eta=1.3, xi=1.0), 2),  # tridiagonal
    "eta, diagonal": (HamiltonianSpec(eta=1.3), MOD_ALL),  # one-state sectors
    "xi": (HamiltonianSpec(eta=1.3, xi=1.0), 2),
    "xi3": (HamiltonianSpec(eta=0.7, xi3=0.3), 3),
    "xi4": (HamiltonianSpec(eta=1.3, xi=1.0, xi4=0.2), 2),  # bandwidth 2
    "xi2p": (HamiltonianSpec(eta=1.3, xi=0.5, xi2p=0.05), 2),
}


class TestLevelSlopes:
    @pytest.mark.parametrize("case", sorted(SLOPE_CASES))
    def test_hellmann_feynman_slope_matches_central_difference(self, case):
        field = case.split(",")[0]
        spec, k = SLOPE_CASES[case]
        n_max, h = 60, 1e-5
        levels = [(r, i) for r in range(k or 4) for i in range(4 if k else 1)]
        slopes = sector_blocks(COUPLING_DERIVATIVES[field], n_max, k)
        value = getattr(spec, field)
        up, down = (
            spec_levels(replace(spec, **{field: value + d}), n_max, k, levels) for d in (h, -h)
        )
        got = spec_levels(spec, n_max, k, levels, slopes)
        assert [e for e, _ in got] == list(spec_levels(spec, n_max, k, levels))
        for (_, slope), hi, lo in zip(got, up, down):
            assert slope == pytest.approx((hi - lo) / (2 * h), rel=1e-6, abs=1e-9)


# Events found on the two small_plan grids with max_levels=6 by the earlier
# refinement (bisection to |dE| < 1e-9 for true crossings, golden section to
# a 1e-12 bracket for avoided ones): (kind, level pair, parameter).
PINNED_EVENTS = {
    "full": [
        ("true_crossing", (0, 0, 1, 0), 9.313225746154785e-10),
        ("true_crossing", (0, 0, 1, 0), 2.0000000037252903),
        ("avoided_crossing", (0, 1, 0, 0), 0.4127032992008582),
        ("true_crossing", (0, 1, 1, 1), 2.0000000004656613),
        ("avoided_crossing", (1, 1, 1, 0), 2.210930461141962),
    ],
    "window": [
        ("avoided_crossing", (0, 3, 0, 2), 4.992259887763699),
        ("avoided_crossing", (1, 2, 1, 1), 4.804216080634197),
    ],
}
PINNED_GRIDS = {"full": None, "window": tuple(4.5 + 0.1 * i for i in range(11))}


def pinned_plan(name):
    grid = PINNED_GRIDS[name]
    return small_plan() if grid is None else small_plan(grid=grid)


class TestCrossingRefinement:
    @pytest.mark.parametrize("name", sorted(PINNED_EVENTS))
    def test_events_match_earlier_refinement(self, name):
        events = detect_crossings(run_sweep(pinned_plan(name)), max_levels=6)
        found = sorted((e.kind, e.level_pair, e.param_value) for e in events)
        pinned = sorted(PINNED_EVENTS[name])
        assert [(k, p) for k, p, _ in found] == [(k, p) for k, p, _ in pinned]
        for (_, _, got), (_, _, want) in zip(found, pinned):
            assert abs(got - want) <= 1e-7

    def test_node_crossing_reported_once_at_the_node(self):
        # at eta = 2 the (0,0)-(1,0) grid difference is roundoff, and a
        # fresh solve there has the other sign; refinement must start from
        # the grid's values or Brent sees no sign change
        grid = run_sweep(small_plan())
        g = int(np.flatnonzero(grid.params == 2.0)[0])
        node_diff = grid.curves[0][g, 0] - grid.curves[1][g, 0]
        assert node_diff != 0.0 and abs(node_diff) < 1e-12
        events = detect_crossings(grid, max_levels=6)
        at_node = [e for e in events if e.level_pair == (0, 0, 1, 0) and abs(e.param_value - 2) < 0.1]
        assert len(at_node) == 1
        assert abs(at_node[0].param_value - 2.0) <= 1e-12

    def test_at_most_eight_solves_per_refined_event(self, monkeypatch):
        original = kerrspec.classify.sector_levels_at
        calls = Counter()

        def counting(plan, value, levels, *slopes):
            calls[plan.grid, tuple(levels)] += 1
            return original(plan, value, levels, *slopes)

        monkeypatch.setattr(kerrspec.classify, "sector_levels_at", counting)
        refined = 0
        for name in PINNED_EVENTS:
            grid = run_sweep(pinned_plan(name))
            events = detect_crossings(grid, max_levels=6)
            refined += sum(not (e.min_gap == 0.0 and e.param_value in grid.params) for e in events)
        assert refined == 7
        # six level pairs, none solved more than eight times on its grid
        assert len(calls) == 6 and max(calls.values()) <= 8
        assert sum(calls.values()) <= 32

    @pytest.mark.parametrize("name", sorted(PINNED_EVENTS))
    def test_avoided_minimum_is_the_vertex_of_the_gap(self, name):
        # a quartic fitted to full-spectrum gaps around the minimum, no slopes involved
        plan = pinned_plan(name)
        grid = run_sweep(plan)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            events = detect_crossings(grid, max_levels=6)
        assert not [w for w in caught if w.category is UnrefinedCrossingWarning]
        avoided = [e for e in events if e.kind == "avoided_crossing"]
        assert avoided
        h, xs = 3e-4, np.arange(-4, 5)
        for e in avoided:
            r, upper, _, lower = e.level_pair
            gaps = []
            for x in xs:
                w = eigen(sector_blocks(standard_hamiltonian(plan.spec_at(e.param_value + h * x)),
                                        plan.n_max, grid.plan.modulus)[r])
                gaps.append(w[upper] - w[lower])
            slope = np.polynomial.Polynomial.fit(h * xs, gaps, 4).convert().deriv()
            vertex = 0.0  # Newton on the fitted slope, from the returned parameter
            for _ in range(20):
                vertex -= slope(vertex) / slope.deriv()(vertex)
            assert abs(vertex) <= 1e-10
            assert e.min_gap == pytest.approx(gaps[4], abs=1e-12)

    def test_minimum_without_a_rising_slope_stays_at_its_node(self, monkeypatch):
        # gap slopes that never change sign: the grid node and gap are reported, with a warning
        original = kerrspec.classify.sector_levels_at

        def rising(plan, value, levels, slopes=None):
            out = original(plan, value, levels, slopes)
            return out if slopes is None else ((out[0][0], 1.0), (out[1][0], 0.0))

        monkeypatch.setattr(kerrspec.classify, "sector_levels_at", rising)
        grid = run_sweep(small_plan())
        with pytest.warns(UnrefinedCrossingWarning, match="left at its grid node") as caught:
            events = detect_crossings(grid, max_levels=6)
        avoided = [e for e in events if e.kind == "avoided_crossing"]
        assert len(avoided) == len(
            [w for w in caught if w.category is UnrefinedCrossingWarning]
        ) == 2
        for e in avoided:
            r, upper, _, lower = e.level_pair
            [g] = np.flatnonzero(grid.params == e.param_value)
            assert e.min_gap == grid.curves[r][g, upper] - grid.curves[r][g, lower]
