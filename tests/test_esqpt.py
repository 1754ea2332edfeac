import numpy as np
import pytest

from kerrspec.classify import degeneracy_groups
from kerrspec.esqpt import (
    CriticalPointEstimate,
    GapCurve,
    SeparatrixModel,
    check_gap_sweep,
    gap_curves,
    separatrix_from_estimates,
    xi_c_difference_bound,
    xi_c_linear_extrapolation,
    xi_c_max_rate,
)
from kerrspec.fock import HamiltonianSpec, HigherOrderCorrections, NumericFailure
from kerrspec.sweep import SpectrumGrid, SweepPlan, run_sweep


@pytest.fixture(scope="module")
def xi_sweep():
    """Undetuned two-photon sweep, desk-sized: resolves v <= 4 closures."""
    plan = SweepPlan(
        varying="xi", grid=tuple(0.05 * i for i in range(341)),
        fixed=HamiltonianSpec(eta=0.0), n_max=300, n_probe=360,
    )
    return run_sweep(plan, threads=4)


@pytest.fixture(scope="module")
def curves(xi_sweep):
    return gap_curves(xi_sweep, 4)


class TestGapCurves:
    def test_undriven_start_exact(self, curves):
        # spectrum n(n-1) at xi = 0: first odd/even gap is E(3) - E(2) = 4
        assert curves[1].gap[0] == 4.0
        assert curves[0].gap[0] == 0.0

    def test_lowest_pair_merges_at_strong_drive(self, curves):
        assert curves[0].gap[-1] < 1e-6

    def test_monotone_decay_past_maximum(self, curves):
        for c in curves[1:]:
            k = int(np.argmax(c.gap))
            tail = c.gap[k:]
            assert np.all(np.diff(tail) <= 1e-9)

    def test_requires_undetuned_two_photon_sweep(self, xi_sweep):
        eta_plan = SweepPlan(
            varying="eta", grid=(0.0, 0.5, 1.0), fixed=HamiltonianSpec(xi=1.0),
            n_max=30, n_probe=45,
        )
        with pytest.raises(ValueError):
            gap_curves(run_sweep(eta_plan), 2)
        detuned = SweepPlan(
            varying="xi", grid=(0.0, 0.5), fixed=HamiltonianSpec(eta=1.0),
            n_max=30, n_probe=45,
        )
        with pytest.raises(ValueError):
            gap_curves(run_sweep(detuned), 1)

    def test_higher_order_detuning_refused(self):
        # detuning3 and detuning4 add to eta in the Hamiltonian, so each detunes it
        for field in ("detuning3", "detuning4"):
            plan = SweepPlan(
                varying="xi", grid=(0.0, 0.5),
                fixed=HamiltonianSpec(higher=HigherOrderCorrections(**{field: 3.0})),
                n_max=30, n_probe=45,
            )
            with pytest.raises(ValueError, match=f"undetuned Hamiltonian, got .*'{field}': 3.0"):
                check_gap_sweep(plan, 2)
        kerr3 = HamiltonianSpec(higher=HigherOrderCorrections(kerr3=0.1))
        check_gap_sweep(SweepPlan(varying="xi", grid=(0.0, 0.5), fixed=kerr3, n_max=30), 2)

    def test_negative_v_max_refused(self, xi_sweep):
        # gap_curves(grid, -1) used to return no curve without an error
        with pytest.raises(ValueError, match="v_max"):
            gap_curves(xi_sweep, -1)
        with pytest.raises(ValueError, match="v_max"):
            check_gap_sweep(xi_sweep.plan, -1)
        # 2.5 once failed with a TypeError from range
        with pytest.raises(ValueError, match="^v_max must be a non-negative integer, got 2.5$"):
            gap_curves(xi_sweep, 2.5)

    def test_unconverged_pairs_refused(self):
        plan = SweepPlan(
            varying="xi", grid=tuple(0.5 * i for i in range(41)),
            fixed=HamiltonianSpec(eta=0.0), n_max=24, n_probe=36,
        )
        grid = run_sweep(plan)
        with pytest.raises(ValueError, match="unconverged"):
            gap_curves(grid, 8)

    def test_gap_oriented_by_its_first_nonzero_value(self):
        # a hand-built parity grid whose odd level 0 sits below the even one
        plan = SweepPlan(varying="xi", grid=(0.0, 0.5, 1.0), n_max=4, n_probe=6)
        even = np.array([[0.0, 2.0], [0.3, 2.0], [0.1, 2.0]])
        odd = np.array([[0.0, 4.0], [0.0, 3.0], [0.0, 2.5]])
        flags = {r: np.ones((3, 2), dtype=bool) for r in (0, 1)}
        grid = SpectrumGrid(plan, {0: even, 1: odd}, flags, np.zeros(3))
        np.testing.assert_array_equal(grid.params, [0.0, 0.5, 1.0])
        flipped, kept = gap_curves(grid, 1)
        np.testing.assert_array_equal(flipped.gap, [0.0, 0.3, 0.1])
        np.testing.assert_array_equal(kept.gap, [2.0, 1.0, 0.5])
        np.testing.assert_array_equal(flipped.mean_energy, [0.0, 0.15, 0.05])

    def test_orientation_guard(self):
        with pytest.raises(ValueError, match="pairing convention"):
            GapCurve(0, np.arange(3.0), np.array([0.1, -0.2, 0.1]), np.ones(3))

    def test_arrays_of_unequal_length_refused(self):
        with pytest.raises(ValueError, match="must share a length"):
            GapCurve(0, np.arange(3.0), np.ones(2), np.ones(3))


class TestMaxRate:
    def test_synthetic_gaussian_inflection(self):
        xi = np.linspace(0, 10, 2001)
        curve = GapCurve(1, xi, np.exp(-((xi - 5.0) ** 2)), np.ones_like(xi))
        est = xi_c_max_rate(curve)
        assert est.xi_c == pytest.approx(5.0 + 1.0 / np.sqrt(2.0), abs=1e-4)
        assert est.method == "max_rate"

    def test_flat_curve_gives_no_estimate(self):
        xi = np.linspace(0, 1, 50)
        assert xi_c_max_rate(GapCurve(0, xi, np.full(50, 2.0), np.ones(50))) is None

    def test_boundary_extremum_gives_no_estimate(self):
        xi = np.linspace(0, 1, 50)
        # steepest descent right at the grid edge
        assert xi_c_max_rate(GapCurve(0, xi, np.exp(-10 * xi), np.ones(50))) is None

    def test_estimate_stable_under_grid_halving(self, xi_sweep, curves):
        est = xi_c_max_rate(curves[1])
        coarse = GapCurve(
            1, curves[1].xi[::2], curves[1].gap[::2], curves[1].mean_energy[::2]
        )
        est2 = xi_c_max_rate(coarse)
        assert est2.xi_c == pytest.approx(est.xi_c, rel=0.02)

    def test_invariant_under_common_shift(self, curves):
        c = curves[1]
        shifted = GapCurve(1, c.xi, c.gap, c.mean_energy + 7.0)
        assert xi_c_max_rate(shifted).xi_c == xi_c_max_rate(c).xi_c


class TestLinearExtrapolation:
    def test_pure_line_recovers_root_exactly(self):
        xi = np.linspace(0, 10, 401)
        a, b = 6.0, 0.8
        curve = GapCurve(2, xi, np.clip(a - b * xi, 0, None), np.ones_like(xi))
        est = xi_c_linear_extrapolation(curve)
        assert est.xi_c == pytest.approx(a / b, rel=1e-10)

    def test_insufficient_window_gives_none(self):
        xi = np.linspace(0, 1, 4)
        curve = GapCurve(0, xi, np.array([1.0, 0.9, 0.8, 0.7]), np.ones(4))
        assert xi_c_linear_extrapolation(curve) is None

    def test_rising_fit_gives_none(self):
        # a straight line has a flat rate, so its maximum is the reference
        xi = np.linspace(0, 1, 51)
        assert xi_c_linear_extrapolation(GapCurve(1, xi, 0.1 + 0.9 * xi, np.ones(51))) is None

    def test_root_beyond_the_grid_gives_none(self):
        # the falling line 1 - xi / 2 reaches zero at xi = 2, past the grid end
        xi = np.linspace(0, 1, 51)
        assert xi_c_linear_extrapolation(GapCurve(1, xi, 1 - 0.5 * xi, np.ones(51))) is None

    def test_small_v_lands_nearest_the_bound_method(self, curves):
        lin = xi_c_linear_extrapolation(curves[1])
        bound = xi_c_difference_bound(curves[1])
        rate = xi_c_max_rate(curves[1])
        assert abs(lin.xi_c - bound.xi_c) < abs(rate.xi_c - bound.xi_c)


class TestDifferenceBound:
    def test_threshold_zero_never_met(self):
        # the gap stays above 0.01, twice DIFF_BOUND_FRACTION of the mean
        xi = np.linspace(0, 4, 100)
        curve = GapCurve(1, xi, np.exp(-xi) + 0.01, np.ones_like(xi))
        assert xi_c_difference_bound(curve) is None

    def test_persistence_skips_early_dip(self):
        xi = np.linspace(0, 5, 6)
        gap = np.array([1.0, 0.001, 1.0, 0.5, 0.001, 0.0005])
        semi = np.ones(6)
        est = xi_c_difference_bound(GapCurve(1, xi, gap, semi))
        assert est.xi_c > xi[3]

    def test_bound_holding_from_the_first_point(self):
        xi = np.linspace(0.5, 2.0, 4)
        est = xi_c_difference_bound(GapCurve(1, xi, np.zeros(4), np.array([3.0, 2, 1, 1])))
        assert (est.xi_c, est.E_c) == (0.5, 3.0)

    def test_monotone_in_v(self, curves):
        xs = [xi_c_difference_bound(c).xi_c for c in curves[1:]]
        assert all(b > a for a, b in zip(xs, xs[1:]))


class TestEstimatorFamily:
    def test_all_methods_increase_with_v_and_agree(self, curves):
        by_method = {}
        for c in curves[1:]:
            for est in (xi_c_max_rate(c), xi_c_linear_extrapolation(c), xi_c_difference_bound(c)):
                assert est is not None
                by_method.setdefault(est.method, []).append(est.xi_c)
        for xs in by_method.values():
            assert all(b > a for a, b in zip(xs, xs[1:]))
        # the methods converge onto each other as v grows; see the decisions
        # ledger for the measured spread at small v (47% at v = 2)
        spreads = []
        for i in range(len(curves) - 1):
            vals = [by_method[m][i] for m in by_method]
            spreads.append((max(vals) - min(vals)) / min(vals))
        assert all(b < a for a, b in zip(spreads, spreads[1:]))
        assert spreads[-1] < 0.25  # v = 4 onward sits inside 25%


class TestSeparatrix:
    def test_requires_three_estimates(self):
        with pytest.raises(ValueError):
            separatrix_from_estimates([])

    def test_estimate_at_zero_coupling_refused(self):
        ests = [CriticalPointEstimate(v, "max_rate", float(v), 1.0) for v in (0, 1, 2)]
        with pytest.raises(NumericFailure, match=r"xi_c=0 \(v=0\)"):
            separatrix_from_estimates(ests)

    def test_points_carry_square_law_deviation(self, curves):
        ests = [xi_c_max_rate(c) for c in curves[1:]]
        pts = separatrix_from_estimates(ests)
        for p in pts:
            assert p.rel_dev == abs(p.E_c - p.xi_c**2) / p.xi_c**2
            assert p.rel_dev < 0.10

    def test_model_forms(self):
        assert SeparatrixModel("kerr").evaluate(eta=4.0) == 6.0
        assert SeparatrixModel("squeeze").evaluate(xi=3.0) == 9.0
        assert SeparatrixModel("combined").evaluate(eta=4.0, xi=1.0) == 10.0
        assert SeparatrixModel("combined_prime").evaluate(eta=4.0, xi=1.0) == 4.0
        with pytest.raises(ValueError):
            SeparatrixModel("linear")


class TestPhaseBoundary:
    def test_doublet_region_ends_near_combined_prime_separatrix(self):
        # at non-integer detuning the doubly-degenerate region below eta*xi
        # is separated from the braiding levels above it
        plan = SweepPlan(
            varying="eta", grid=(6.5, 9.5, 11.5), fixed=HamiltonianSpec(xi=1.0),
            n_max=400, n_probe=500,
        )
        grid = run_sweep(plan, threads=2)
        model = SeparatrixModel("combined_prime")
        for g, eta in enumerate(grid.params):
            merged = np.sort(
                np.concatenate([grid.curves[0][g][:20], grid.curves[1][g][:20]])
            )
            gaps = np.diff(merged)
            # walk pairs while the intra-pair gap stays well under the spacing
            idx = 0
            while idx + 1 < len(merged) and gaps[idx] < 0.1 * (
                gaps[idx + 1] if idx + 1 < len(gaps) else np.inf
            ):
                idx += 2
            top_of_pairs = merged[idx - 1]
            first_unpaired = merged[idx]
            spacing = first_unpaired - top_of_pairs
            predicted = float(model.evaluate(eta=eta, xi=1.0))
            assert top_of_pairs - spacing <= predicted <= first_unpaired + spacing


class TestDegeneracyCountGrowth:
    def test_pair_count_grows_with_drive_at_odd_eta(self):
        counts = []
        for xi in (1.0, 4.0, 8.0):
            plan_spec = HamiltonianSpec(eta=5.0, xi=xi)
            from kerrspec import converged_spectrum

            cs = converged_spectrum(plan_spec, 300, 360)
            groups = degeneracy_groups(cs, tol_deg=1e-6)
            counts.append(sum(1 for g in groups[:8] if g.multiplicity >= 2))
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[2] > counts[0]
