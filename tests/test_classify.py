import dataclasses
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from kerrspec.classify import (
    ROOT_MAXITER,
    ROOT_XTOL,
    CrossingEvent,
    LevelPair,
    QuasiSpinLabel,
    TwoBosonState,
    UnconvergedCrossingWarning,
    _brent,
    _pair_gap,
    check_track_pair,
    degeneracy_groups,
    detect_crossings,
    kerr_exact_levels,
    track_crossing_location,
)
from kerrspec import classify, converged_spectrum
from kerrspec.fock import HamiltonianSpec, HigherOrderCorrections
from kerrspec.sweep import SweepPlan, run_sweep


class TestKerrExactLevels:
    def test_even_eta_table(self):
        levels = kerr_exact_levels(4)
        assert [lv.energy for lv in levels] == [0, 0, 2, 2, 6, 6]
        assert [(lv.state.n1, lv.state.n2) for lv in levels] == [
            (2, 3), (3, 2), (1, 4), (4, 1), (0, 5), (5, 0)
        ]
        assert [lv.label.m for lv in levels] == [
            Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
            Fraction(-3, 2), Fraction(5, 2), Fraction(-5, 2),
        ]
        assert all(lv.label.j == Fraction(5, 2) for lv in levels)

    def test_odd_eta_table(self):
        levels = kerr_exact_levels(3)
        assert [lv.energy for lv in levels] == [0, 1, 1, 4, 4]
        assert [lv.label.m for lv in levels] == [0, 1, -1, 2, -2]
        assert levels[0].label.j == 2

    def test_eta_zero_pair(self):
        levels = kerr_exact_levels(0)
        assert [lv.energy for lv in levels] == [0, 0]
        assert {lv.state.n1 for lv in levels} == {0, 1}

    def test_count_truncates_and_validates(self):
        # the whole multiplet n1 = 0..eta + 1 comes back; a caller wanting fewer slices it
        assert len(kerr_exact_levels(4)) == 6
        with pytest.raises(ValueError):
            kerr_exact_levels(-1)
        with pytest.raises(ValueError):
            kerr_exact_levels(2.5)
        assert kerr_exact_levels(4.0) == kerr_exact_levels(4)

    def test_infinite_eta_refused(self):
        with pytest.raises(ValueError, match="eta must be a non-negative integer"):
            kerr_exact_levels(float("inf"))

    def test_nan_eta_refused(self):
        with pytest.raises(ValueError, match="eta must be a non-negative integer"):
            kerr_exact_levels(float("nan"))

    @pytest.mark.parametrize("eta", range(9))
    def test_energy_identities(self, eta):
        levels = kerr_exact_levels(eta)
        eta_prime = eta + 1
        ground = min(n * n - eta_prime * n for n in range(eta + 2))
        for lv in levels:
            n1 = lv.state.n1
            # E = n1^2 - eta' n1, counted from the lowest state
            assert lv.energy == n1 * n1 - eta_prime * n1 - ground
            # two-boson identity m^2 = N^2/4 + n1^2 - N n1, exactly
            m, N = lv.label.m, lv.state.N
            assert m * m == Fraction(N * N, 4) + n1 * n1 - N * n1

    @pytest.mark.parametrize("eta", range(1, 9))
    def test_pair_parity_rule(self, eta):
        levels = kerr_exact_levels(eta)
        by_energy: dict[int, list] = {}
        for lv in levels:
            by_energy.setdefault(lv.energy, []).append(lv)
        for group in by_energy.values():
            if len(group) == 2:
                same = group[0].label.parity == group[1].label.parity
                assert same == (eta % 2 == 1)

    def test_label_invariants_enforced(self):
        with pytest.raises(ValueError):
            QuasiSpinLabel(j=Fraction(1, 2), m=Fraction(3, 2), parity=1)
        with pytest.raises(ValueError):
            QuasiSpinLabel(j=1, m=Fraction(1, 2), parity=1)
        with pytest.raises(ValueError):
            TwoBosonState(-1, 3)


class TestDegeneracyGroups:
    def test_diagonal_kerr_exact_pairs(self):
        cs = converged_spectrum(HamiltonianSpec(eta=4), n_max=20, n_probe=30)
        groups = degeneracy_groups(cs)
        assert [g.multiplicity for g in groups[:3]] == [2, 2, 2]
        assert all(g.max_internal_gap == 0.0 for g in groups[:3])

    def test_odd_eta_multiplicity_pattern(self):
        cs = converged_spectrum(HamiltonianSpec(eta=5), n_max=20, n_probe=30)
        assert [g.multiplicity for g in degeneracy_groups(cs)[:4]] == [1, 2, 2, 2]

    def test_driven_even_eta_pairs_persist(self):
        cs = converged_spectrum(HamiltonianSpec(eta=6, xi=1.0), 300, 360)
        groups = degeneracy_groups(cs, tol_deg=1e-6)
        assert [g.multiplicity for g in groups[:4]] == [2, 2, 2, 2]

    def test_driven_odd_eta_singlet_remains(self):
        cs = converged_spectrum(HamiltonianSpec(eta=5, xi=1.0), 300, 360)
        groups = degeneracy_groups(cs, tol_deg=1e-6)
        assert groups[0].multiplicity == 1
        # nearest neighbour well separated from the former m = 0 level
        assert groups[1].energies[0] - groups[0].energies[0] > 1e-5

    def test_plain_array_input(self):
        groups = degeneracy_groups(np.array([0.0, 0.0, 1.0, 5.0, 5.0 + 1e-9]), 1e-6)
        assert [g.multiplicity for g in groups] == [2, 1, 2]

    def test_relative_tolerance_above_unit_energy(self):
        # at |E| = 1000 a gap of 1e-4 sits inside tol_deg = 1e-6 relative
        groups = degeneracy_groups(np.array([1000.0, 1000.0001, 2000.0]), 1e-6)
        assert [g.multiplicity for g in groups] == [2, 1]

    @pytest.mark.parametrize(
        "levels, problem",
        [([3.0, 1.0, 0.0], "ascending"), ([0.0, np.nan, 1.0, 3.0], "finite"),
         ([0.0, 1.0, np.inf], "finite")],
    )
    def test_bad_plain_array_refused(self, levels, problem):
        # a descending step would always pass the gap test, and NaN compares false
        with pytest.raises(ValueError, match=f"levels must be {problem}"):
            degeneracy_groups(np.array(levels))


class TestCrossingEvents:
    def test_diagonal_sweep_crossings_at_integers(self):
        # level curves of the squeeze-free Hamiltonian cross exactly at integer eta
        plan = SweepPlan(
            varying="eta", grid=tuple(0.08 * i for i in range(40)),
            fixed=HamiltonianSpec(), n_max=10, n_probe=20,
        )
        events = detect_crossings(run_sweep(plan), max_levels=4)
        true_events = [e for e in events if e.kind == "true_crossing"]
        assert true_events
        for e in true_events:
            assert abs(e.param_value - round(e.param_value)) < 1e-9

    def test_driven_sweep_true_and_avoided(self):
        plan = SweepPlan(
            varying="eta", grid=tuple(1.53 + 0.06 * i for i in range(60)),
            fixed=HamiltonianSpec(xi=1.0), n_max=80, n_probe=120,
        )
        grid = run_sweep(plan)
        events = detect_crossings(grid, max_levels=3)
        true_params = [e.param_value for e in events if e.kind == "true_crossing"]
        # persistent inter-parity degeneracies pin to even integers
        assert any(abs(p - 2.0) < 1e-6 for p in true_params)
        assert any(abs(p - 4.0) < 1e-6 for p in true_params)
        avoided = [e for e in events if e.kind == "avoided_crossing"]
        assert avoided
        for e in avoided:
            ra, _, rb, _ = e.level_pair
            assert ra == rb and e.min_gap >= 0
        for e in events:
            if e.kind == "true_crossing":
                assert e.min_gap < 1e-9

    def test_numeric_fields_are_python_floats(self):
        # the avoided crossing near eta 0.4127 ends its root search on a tolerance step
        plan = SweepPlan(
            varying="eta", grid=tuple(0.05 * i for i in range(61)),
            fixed=HamiltonianSpec(xi=1.0), n_max=60, n_probe=90,
        )
        events = detect_crossings(run_sweep(plan), 4)
        assert {e.kind for e in events} == {"true_crossing", "avoided_crossing"}
        assert any(abs(e.param_value - 0.41270331154216117) < 1e-12 for e in events)
        for e in events:
            assert type(e.param_value) is float and type(e.min_gap) is float, e
            assert all(type(x) is int for x in e.level_pair), e

    def test_refinement_tightens_gap(self):
        plan = SweepPlan(
            varying="eta", grid=tuple(2.5 + 0.1 * i for i in range(12)),
            fixed=HamiltonianSpec(xi=1.0), n_max=60, n_probe=90,
        )
        grid = run_sweep(plan)
        events = detect_crossings(grid, max_levels=2)
        for e in events:
            if e.kind == "avoided_crossing":
                ra, ia, rb, ib = e.level_pair
                coarse = np.min(np.abs(grid.curves[ra][:, ia] - grid.curves[rb][:, ib]))
                assert e.min_gap <= coarse + 1e-12


class TestBrentRoot:
    @staticmethod
    def bracketed_functions(count):
        """``count`` (f, lo, hi) with f(lo) and f(hi) nonzero and of opposite sign."""
        rng = np.random.default_rng(7)
        shapes = (
            lambda c, x: np.polyval(c, x),
            lambda c, x: np.sin(3 * c[0] * x + c[1]) + 0.3 * c[2],
            lambda c, x: np.tanh(5 * c[0] * (x - c[1])) + 1e-3 * c[2],
            lambda c, x: abs(c[1]) * (x - c[0]) ** 3 + 1e-14 * c[2],
            lambda c, x: np.exp(c[0] * x) - np.exp(c[1]),
        )
        found = []
        while len(found) < count:
            shape, c = shapes[len(found) % len(shapes)], rng.normal(size=6)
            lo, hi = sorted(rng.uniform(-3, 3, size=2))
            f = lambda x, shape=shape, c=c: float(shape(c, x))  # noqa: E731
            f_lo, f_hi = f(lo), f(hi)
            if f_lo != 0 and f_hi != 0 and (f_lo < 0) != (f_hi < 0):
                found.append((f, lo, hi))
        return found

    def test_same_root_and_calls_as_scipy_brentq(self):
        for f, lo, hi in self.bracketed_functions(1000):
            calls = []

            def counted(x, f=f):
                calls.append(x)
                return f(x)

            want, info = brentq(f, lo, hi, xtol=ROOT_XTOL, full_output=True)
            root, value = _brent(counted, lo, hi, f(lo), f(hi))
            assert root == want
            assert len(calls) + 2 == info.function_calls  # brentq also evaluates both ends
            assert value == f(root)

    def test_zero_end_is_the_root_and_no_sign_change_refused(self):
        never = lambda x: pytest.fail("evaluated f")  # noqa: E731
        assert _brent(never, 1.0, 2.0, 0.0, 3.0) == (1.0, 0.0)
        assert _brent(never, 1.0, 2.0, -3.0, 0.0) == (2.0, 0.0)
        with pytest.raises(ValueError, match="no sign change"):
            _brent(never, 1.0, 2.0, 1.0, 3.0)

    def test_stops_after_root_maxiter_steps(self):
        # a jump is no root the bracket can close on: ROOT_MAXITER halvings of a
        # 2e300-wide bracket leave it about 1e270 wide
        calls = []

        def step(x):
            calls.append(x)
            return 1.0 if x > 0.1 else -1.0

        with pytest.raises(RuntimeError, match=f"not converged after {ROOT_MAXITER} iterations"):
            _brent(step, -1e300, 1e300, -1.0, 1.0)
        assert len(calls) == ROOT_MAXITER


class TestUnconvergedWarning:
    def test_avoided_crossing_warns_about_either_level(self):
        plan = SweepPlan(
            varying="eta", grid=tuple(0.05 + 0.1 * k for k in range(40)),
            fixed=HamiltonianSpec(xi=1.0), n_max=40, n_probe=60,
        )
        grid = run_sweep(plan)
        avoided = [e for e in detect_crossings(grid, 6) if e.kind == "avoided_crossing"]
        assert [f"{e.param_value:.6g}" for e in avoided] == ["0.412703", "2.21093", "2.90306"]
        for e in avoided:
            r, upper, _, lower = e.level_pair
            for level in (upper, lower):
                flags = {q: f.copy() for q, f in grid.converged.items()}
                flags[r][:, level] = False
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    detect_crossings(dataclasses.replace(grid, converged=flags), 6)
                named = [
                    w for w in caught
                    if w.category is UnconvergedCrossingWarning
                    and f"param={e.param_value:.6g} " in str(w.message)
                    and f"(sector {r}, index {level})" in str(w.message)
                ]
                assert len(named) == 1, (e, level)


def diagonal_integer_grid():
    """MOD_ALL sweep over eta = 0, 1, ..., 6, where one-state sectors cross on the nodes."""
    plan = SweepPlan(
        varying="eta", grid=tuple(float(e) for e in range(7)),
        fixed=HamiltonianSpec(), n_max=20, n_probe=30,
    )
    return run_sweep(plan)


class TestUnconvergedOnNodesAndCallers:
    def test_node_hit_warns_about_either_level(self):
        grid = diagonal_integer_grid()
        assert grid.plan.modulus == 0
        # E_n = -eta n + n(n - 1): the one-state sectors 0 and 1 meet at eta = 0
        hit = CrossingEvent(0.0, (0, 0, 1, 0), 0.0)
        assert hit in detect_crossings(grid)
        for r, level in ((0, 0), (1, 0)):
            flags = {q: f.copy() for q, f in grid.converged.items()}
            flags[r][:, level] = False
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                detect_crossings(dataclasses.replace(grid, converged=flags))
            named = [
                w for w in caught
                if w.category is UnconvergedCrossingWarning
                and "param=0 " in str(w.message)
                and f"(sector {r}, index {level})" in str(w.message)
            ]
            assert len(named) == 1, (r, level)

    def test_warnings_point_at_the_caller(self):
        driven = run_sweep(SweepPlan(
            varying="eta", grid=tuple(0.05 + 0.1 * k for k in range(40)),
            fixed=HamiltonianSpec(xi=1.0), n_max=40, n_probe=60,
        ))
        for grid in (diagonal_integer_grid(), driven):
            flags = {q: np.zeros_like(f) for q, f in grid.converged.items()}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                events = detect_crossings(dataclasses.replace(grid, converged=flags), 6)
            assert {e.kind for e in events} >= {"true_crossing"}
            assert len(caught) >= 2 * len(events)
            assert {w.filename for w in caught} == {__file__}


def per_pair_true_crossings(grid, max_levels):
    """True crossings by a plain scan over every pair of sectors, one pair at a time."""
    events = []
    for xa, ra in enumerate(grid.residues):
        for rb in grid.residues[xa + 1 :]:
            A = grid.curves[ra][:, :max_levels]
            B = grid.curves[rb][:, :max_levels]
            diff = A[:, :, None] - B[:, None, :]
            sign = np.sign(diff)
            for g, i, j in np.argwhere(sign == 0):
                pair = (ra, int(i), rb, int(j))
                events.append(CrossingEvent(float(grid.params[g]), pair, 0.0))
            for g, i, j in np.argwhere(sign[:-1] * sign[1:] < 0):
                f = _pair_gap(grid.plan, ra, int(i), rb, int(j))
                lo, hi = float(grid.params[g]), float(grid.params[g + 1])
                root, gap = _brent(f, lo, hi, float(diff[g, i, j]), float(diff[g + 1, i, j]))
                events.append(CrossingEvent(root, (ra, int(i), rb, int(j)), abs(gap)))
    return sorted(events, key=lambda e: (e.param_value, e.level_pair))


class TestScan:
    FIXED = {
        0: HamiltonianSpec(),
        2: HamiltonianSpec(xi=1.0),
        3: HamiltonianSpec(xi3=0.3),
        4: HamiltonianSpec(xi4=0.05),
    }

    @pytest.mark.parametrize("max_levels", [1, 12, None])
    @pytest.mark.parametrize("modulus", sorted(FIXED))
    def test_events_equal_per_sector_pair_scan(self, modulus, max_levels):
        grid = run_sweep(SweepPlan(
            varying="eta", grid=tuple(0.25 * k for k in range(25)),
            fixed=self.FIXED[modulus], n_max=40, n_probe=60,
        ))
        assert grid.plan.modulus == modulus
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            events = detect_crossings(grid, max_levels)
            want = per_pair_true_crossings(grid, max_levels)
        assert want
        assert [e for e in events if e.kind == "true_crossing"] == want

    def test_cap_below_one_refused(self):
        # -1 once scanned all but each sector's top level, and 0 nothing
        grid = run_sweep(SweepPlan(
            varying="eta", grid=tuple(0.25 * k for k in range(17)),
            fixed=HamiltonianSpec(xi=1.0), n_max=10, n_probe=20,
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert len(detect_crossings(grid, None)) == 7
        for max_levels in (0, -1):
            with pytest.raises(ValueError, match="max_levels"):
                detect_crossings(grid, max_levels)

    def test_memory_peak_within_a_small_multiple_of_the_curves(self):
        # all 201 levels of both parity sectors; a comparison array of every
        # level pair at once would take 100 times the curves' bytes
        grid = run_sweep(SweepPlan(
            varying="eta", grid=tuple(0.05 + 0.1 * k for k in range(61)),
            fixed=HamiltonianSpec(xi=1.0), n_max=200, n_probe=240,
        ))
        curve_bytes = sum(c.nbytes for c in grid.curves.values())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tracemalloc.start()
            try:
                events = detect_crossings(grid, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert events
        assert peak <= 8 * curve_bytes, (peak, curve_bytes)


class TestTrackCrossing:
    def test_two_photon_drive_pins_even_eta(self):
        points = track_crossing_location(
            LevelPair(0, 3, 1, 3), "P2", [0.5, 1.0, 2.0, 4.0], 6, n_max=300
        )
        assert all(p.found for p in points)
        assert max(abs(p.eta_star - 6.0) for p in points) < 1e-6

    def test_three_photon_drift_small_and_eta_independent(self):
        drifts = {}
        for eta0, pair in ((2, LevelPair(1, 0, 2, 0)), (4, LevelPair(2, 0, 0, 0))):
            pts = track_crossing_location(pair, "P3", [0.05], eta0, n_max=200)
            assert pts[0].found
            drifts[eta0] = abs(pts[0].eta_star - eta0)
        assert 0 < drifts[2] < 0.01 and 0 < drifts[4] < 0.01
        assert drifts[2] == pytest.approx(drifts[4], rel=0.02)  # eta independent

    def test_four_photon_drift_larger_and_eta_dependent(self):
        drifts = {}
        for eta0, pair in ((2, LevelPair(1, 0, 2, 0)), (6, LevelPair(3, 0, 0, 0))):
            pts = track_crossing_location(pair, "P4", [0.05], eta0, n_max=200)
            assert pts[0].found
            drifts[eta0] = abs(pts[0].eta_star - eta0)
        p3 = track_crossing_location(LevelPair(2, 0, 0, 0), "P3", [0.05], 4, n_max=200)
        assert min(drifts.values()) > 5 * abs(p3[0].eta_star - 4)  # well above P3
        assert drifts[6] / drifts[2] == pytest.approx(2.0, rel=0.05)  # grows with eta

    def test_unknown_coupling_rejected(self):
        with pytest.raises(ValueError):
            track_crossing_location(LevelPair(0, 0, 1, 0), "P5", [0.1], 2)

    def test_pair_outside_the_sectors_refused_before_any_solve(self):
        # P2 at n_max 40: sectors 0 and 1 hold 21 and 20 states
        for pair in (LevelPair(5, 0, 1, 0), LevelPair(0, 99, 1, 0), LevelPair(0, 0, 1, 20)):
            with pytest.raises(ValueError, match=r"pair level \(\d+, \d+\) is not among"):
                track_crossing_location(pair, "P2", [0.5], 2, n_max=40)
        assert check_track_pair(LevelPair(0, 20, 1, 19), "P2", 40) == 2
        assert check_track_pair(LevelPair(2, 12, 0, 13), "P3", 40) == 3

    def test_pair_of_one_level_refused_before_any_solve(self, monkeypatch):
        # its gap is identically 0, so every bracket would report a "root"
        def no_solve(*args):
            raise AssertionError("solved a level")

        monkeypatch.setattr(classify, "spec_levels", no_solve)
        for coupling, pair in (("P2", LevelPair(0, 0, 0, 0)), ("P3", LevelPair(2, 5, 2, 5))):
            with pytest.raises(ValueError, match=r"names the level \(\d+, \d+\) twice"):
                track_crossing_location(pair, coupling, [0.5, 1.0], 2, n_max=40)
        assert check_track_pair(LevelPair(0, 0, 0, 1), "P2", 40) == 2

    def test_lost_crossing_reported(self):
        # same-parity pair never changes sign: no root to find
        points = track_crossing_location(LevelPair(0, 1, 0, 0), "P2", [1.0], 6, n_max=120)
        assert not points[0].found and points[0].eta_star is None
        assert not points[0].converged

    def test_base_spec_sets_the_sectors(self):
        # P2 over a diagonal base keeps parity; over xi3 only modulus 1 is left
        kerr3 = HamiltonianSpec(eta=5.0, higher=HigherOrderCorrections(kerr3=0.1))
        assert check_track_pair(LevelPair(0, 20, 1, 19), "P2", 40, kerr3) == 2
        xi3 = HamiltonianSpec(xi3=0.1)
        assert check_track_pair(LevelPair(0, 0, 0, 40), "P2", 40, xi3) == 1
        for pair in (LevelPair(0, 0, 1, 0), LevelPair(0, 0, 0, 41)):
            with pytest.raises(ValueError, match=r"pair level \(\d+, \d+\) is not among"):
                track_crossing_location(pair, "P2", [0.5], 2, n_max=40, fixed=xi3)
        # the coupling field of the base is overridden, so it leaves the sectors alone
        assert check_track_pair(LevelPair(2, 0, 0, 0), "P3", 40, HamiltonianSpec(xi3=5.0)) == 3

    def test_basis_settings_refused_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved a level")

        monkeypatch.setattr(classify, "spec_levels", no_solve)
        for n_probe, tol_conv, message in ((40, 1e-8, "n_probe=40 must exceed"),
                                           (None, -1.0, "tol_conv must be finite")):
            with pytest.raises(ValueError, match=message):
                track_crossing_location(
                    LevelPair(0, 0, 1, 0), "P2", [0.5], 2, 40, n_probe, tol_conv
                )

    def test_each_root_is_certified_once_at_n_probe(self, monkeypatch):
        solves, spec_levels = [], classify.spec_levels

        def recorded(spec, n, k, levels):
            solves.append((spec, n))
            return spec_levels(spec, n, k, levels)

        monkeypatch.setattr(classify, "spec_levels", recorded)
        fixed = HamiltonianSpec(eta=9.0, xi=9.0, higher=HigherOrderCorrections(kerr3=1e-3))
        points = track_crossing_location(
            LevelPair(0, 3, 1, 3), "P2", [0.5, 2.0], 6, 200, 250, fixed=fixed
        )
        assert all(p.found and p.converged for p in points)
        probes = [spec for spec, n in solves if n == 250]
        assert probes == [
            dataclasses.replace(fixed, eta=p.eta_star, xi=p.coupling_value) for p in points
        ]
        assert {n for _, n in solves} == {200, 250}
        # at n_max 18 truncation moves the pin off 6 by 3e-5 and the pair's levels
        # by up to 1.4e-4 against n_probe 38: refused at tol_conv 1e-8, passed at 1e-2
        small = [
            track_crossing_location(LevelPair(0, 3, 1, 3), "P2", [2.0], 6, 18, 38, tol)[0]
            for tol in (1e-8, 1e-2)
        ]
        assert [p.converged for p in small] == [False, True]
        assert small[0].eta_star == small[1].eta_star != 6.0

    def test_numeric_fields_are_python_floats(self):
        # a numpy scalar among the tolerances would leak into the roots it ends on
        found = track_crossing_location(LevelPair(0, 0, 1, 0), "P2", [0.5, 8.0], 2, n_max=40)
        lost = track_crossing_location(LevelPair(0, 1, 0, 0), "P2", [1.0], 6, n_max=120)
        assert [p.found for p in found + lost] == [True, True, False]
        for p in found + lost:
            fields = (p.coupling_value, p.gap) + ((p.eta_star,) if p.found else ())
            assert all(type(x) is float for x in fields), p
            assert type(p.converged) is bool
