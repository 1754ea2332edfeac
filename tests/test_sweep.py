import numpy as np
import pytest

import kerrspec.classify
from kerrspec.classify import detect_crossings, kerr_exact_levels
from kerrspec.eigensolve import converged_spectrum
from kerrspec.fock import HamiltonianSpec
from kerrspec.sectors import MOD_ALL
from kerrspec.sweep import CHUNK, SweepPlan, plan_modulus, refine_near, run_sweep


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
        with pytest.raises(ValueError):
            SweepPlan(varying="eta", grid=(0.0, 1.0), normalize="shifted")

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


class TestRunSweep:
    def test_curves_ascend_within_sector(self):
        grid = run_sweep(small_plan())
        for r in grid.residues:
            assert np.all(np.diff(grid.curves[r], axis=1) >= 0)

    def test_excitation_normalization(self):
        grid = run_sweep(small_plan(normalize="excitation"))
        minima = np.array(
            [min(grid.curves[r][g, 0] for r in grid.residues) for g in range(len(grid.params))]
        )
        np.testing.assert_array_equal(minima, np.zeros(len(grid.params)))
        for r in grid.residues:
            assert np.all(grid.curves[r] >= 0)

    def test_normalization_is_a_shift(self):
        exc = run_sweep(small_plan(normalize="excitation"))
        absolute = run_sweep(small_plan(normalize="absolute"))
        for r in exc.residues:
            np.testing.assert_allclose(
                np.diff(exc.curves[r], axis=1),
                np.diff(absolute.curves[r], axis=1),
                atol=1e-12,
            )
            # reconstructing absolute energies reintroduces only rounding
            np.testing.assert_allclose(
                exc.absolute(r), absolute.curves[r], rtol=1e-14, atol=1e-10
            )

    def test_undriven_point_matches_exact_multiplet(self):
        plan = SweepPlan(
            varying="xi", grid=(0.0, 1e-3), fixed=HamiltonianSpec(eta=4.0),
            n_max=40, n_probe=60,
        )
        grid = run_sweep(plan)
        merged = np.sort(np.concatenate([grid.excitation(r)[0] for r in grid.residues]))
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
            fixed=HamiltonianSpec(eta=1.0), n_max=30, n_probe=46, normalize="absolute",
        )
        assert len(plan.grid) % CHUNK != 0
        grid = run_sweep(plan, threads=threads)
        unconverged = 0
        for i, value in enumerate(plan.grid):
            cs = converged_spectrum(plan.spec_at(value), plan.n_max, plan.n_probe, plan.tol_conv)
            for r in grid.residues:
                np.testing.assert_array_equal(grid.curves[r][i], cs.energies[cs.residues == r])
                np.testing.assert_array_equal(grid.converged[r][i], cs.converged[cs.residues == r])
            unconverged += int((~cs.converged).sum())
        assert unconverged > 0

    def test_convergence_flags_present(self):
        grid = run_sweep(small_plan(n_max=30, n_probe=45))
        assert all(grid.converged[r].shape == grid.curves[r].shape for r in grid.residues)


class TestRefineNear:
    def test_no_events_returns_same_grid(self):
        grid = run_sweep(small_plan())
        assert refine_near(grid, [], 10) is grid

    def test_factor_ten_inserts_nine_points(self):
        grid = run_sweep(small_plan())
        events = detect_crossings(grid, max_levels=2)
        event = next(e for e in events if e.kind == "avoided_crossing")
        refined = refine_near(grid, [event], 10)
        assert len(refined.params) == len(grid.params) + 9
        assert np.all(np.diff(refined.params) > 0)

    def test_refined_points_match_direct_evaluation(self):
        grid = run_sweep(small_plan())
        events = detect_crossings(grid, max_levels=2)
        refined = refine_near(grid, events[:1], 4)
        new_mask = ~np.isin(refined.params, grid.params)
        direct = run_sweep(small_plan(grid=tuple(refined.params)))
        for r in refined.residues:
            np.testing.assert_array_equal(
                refined.curves[r][new_mask], direct.curves[r][new_mask]
            )

    def test_refined_min_gap_not_larger(self):
        plan = small_plan(grid=tuple(4.5 + 0.1 * i for i in range(11)))
        grid = run_sweep(plan)
        events = detect_crossings(grid, max_levels=3)
        avoided = [e for e in events if e.kind == "avoided_crossing"]
        if not avoided:
            pytest.skip("no avoided crossing on this window")
        e = avoided[0]
        ra, ia, rb, ib = e.level_pair
        refined = refine_near(grid, [e], 10)
        coarse_min = np.min(np.abs(grid.curves[ra][:, ia] - grid.curves[rb][:, ib]))
        fine_min = np.min(np.abs(refined.curves[ra][:, ia] - refined.curves[rb][:, ib]))
        assert fine_min <= coarse_min + 1e-15

    def test_bad_factor_rejected(self):
        grid = run_sweep(small_plan())
        with pytest.raises(ValueError):
            refine_near(grid, [], 1)


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
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(kerrspec.classify, "sector_levels_at", counting)
        refined = 0
        for name in PINNED_EVENTS:
            grid = run_sweep(pinned_plan(name))
            events = detect_crossings(grid, max_levels=6)
            refined += sum(not (e.min_gap == 0.0 and e.param_value in grid.params) for e in events)
        assert refined == 7
        assert 0 < len(calls) <= 8 * refined
