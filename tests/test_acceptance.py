"""Acceptance suite: one test per numbered criterion, printing PASS/FAIL lines.

The production-scale runs (basis size 800) rely on the banded solver, so the
whole suite stays at desk scale.  Frozen perturbation strengths for the
asymptotic-multiplicity criterion come from the convergence scan documented
next to criterion 9.
"""

import numpy as np
import pytest

from kerrspec.classify import (
    LevelPair,
    degeneracy_groups,
    kerr_exact_levels,
    track_crossing_location,
)
from kerrspec.cli import emit_csv
from kerrspec import converged_spectrum
from kerrspec.eigensolve import eigen
from kerrspec.esqpt import gap_curves, separatrix_from_estimates, xi_c_max_rate
from kerrspec.fock import (
    FockSpace,
    HamiltonianSpec,
    HigherOrderCorrections,
    assemble,
    commutator_residual,
    ladder_poly,
    number_poly,
    pairing_poly,
    poly_to_dense,
    standard_hamiltonian,
)
from kerrspec.sectors import SymmetryViolation, detect_modulus, split
from kerrspec.sweep import SweepPlan, run_sweep
from kerrspec.u2 import (
    U2Rep,
    casimir_spectrum,
    classify_pairing_sp2,
    pairing_prime_matrix,
    casimir_matrix,
    u2_generators,
)

TOL_DEG = 1e-6


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def esqpt_sweep():
    """Two-photon coupling sweep resolving all v <= 12 gap closures.

    The grid extends to xi = 42 so that the steepest-descent point of the
    v = 12 pair (near 3.1 * 12 = 37) stays interior to the grid.
    """
    plan = SweepPlan(
        varying="xi",
        grid=tuple(0.05 * i for i in range(841)),
        fixed=HamiltonianSpec(eta=0.0),
        n_max=800,
        n_probe=900,
        tol_conv=1e-8,
    )
    return run_sweep(plan, threads=0)


@pytest.fixture(scope="module")
def max_rate_estimates(esqpt_sweep):
    curves = gap_curves(esqpt_sweep, 12)
    return [xi_c_max_rate(c) for c in curves[1:]]


def test_criterion_1_exact_quasispin_spectra():
    ok = True
    for eta in range(9):
        exact = kerr_exact_levels(eta)
        spectrum = converged_spectrum(HamiltonianSpec(eta=float(eta)), 40, 60)
        numeric = spectrum.excitations[: len(exact)]
        formula = np.array([lv.energy for lv in exact], dtype=float)
        ok &= bool(np.max(np.abs(numeric - formula)) <= 1e-12)
        j = exact[0].label.j
        ok &= 2 * j == eta + 1
    report(1, "squeeze-free spectra match m^2 - 1/4 / m^2 with j = (eta+1)/2", ok)


def test_criterion_2_table_reproduction():
    four = kerr_exact_levels(4)
    three = kerr_exact_levels(3)
    ok = [lv.energy for lv in four] == [0, 0, 2, 2, 6, 6]
    ok &= [lv.energy for lv in three] == [0, 1, 1, 4, 4]
    ok &= [(lv.state.n1, lv.state.n2) for lv in four] == [
        (2, 3), (3, 2), (1, 4), (4, 1), (0, 5), (5, 0)
    ]
    ok &= [(lv.state.n1, lv.state.n2) for lv in three] == [
        (2, 2), (1, 3), (3, 1), (0, 4), (4, 0)
    ]
    # numerically, the lowest six levels at eta = 4 are exactly those Fock states
    spectrum = converged_spectrum(HamiltonianSpec(eta=4.0), 40, 60)
    ok &= list(spectrum.residues[:6]) == [2, 3, 1, 4, 0, 5]
    report(2, "multiplet tables at eta = 4 and eta = 3 reproduced exactly", ok)


def test_criterion_3_degeneracy_stability_under_two_photon_drive():
    xis = (0.5, 1.0, 2.0, 4.0, 8.0)
    ok = True
    for xi in xis:
        cs = converged_spectrum(HamiltonianSpec(eta=6.0, xi=xi), 800, 900, 1e-8)
        exc = cs.excitations
        gaps = (exc[1] - exc[0], exc[3] - exc[2], exc[5] - exc[4])
        ok &= all(g <= 1e-6 for g in gaps)
    tracked = track_crossing_location(LevelPair(0, 3, 1, 3), "P2", xis, 6, n_max=800)
    ok &= all(p.found for p in tracked)
    ok &= max(abs(p.eta_star - 6.0) for p in tracked) <= 1e-4
    report(3, "eta = 6 pairs stay degenerate and pinned at eta* = 6 up to xi = 8", ok)


def test_criterion_4_odd_eta_lifting():
    cs = converged_spectrum(HamiltonianSpec(eta=5.0, xi=1.0), 800, 900, 1e-8)
    groups = degeneracy_groups(cs, TOL_DEG)
    ok = groups[0].multiplicity == 1
    ok &= (groups[1].energies[0] - groups[0].energies[-1]) > 10 * TOL_DEG
    pair_counts = []
    for xi in (1.0, 4.0, 8.0):
        cs_xi = converged_spectrum(HamiltonianSpec(eta=5.0, xi=xi), 800, 900, 1e-8)
        groups_xi = degeneracy_groups(cs_xi, TOL_DEG)
        pair_counts.append(sum(1 for g in groups_xi[:8] if g.multiplicity >= 2))
    ok &= pair_counts[0] <= pair_counts[1] <= pair_counts[2]
    ok &= pair_counts[-1] > pair_counts[0]
    report(4, "eta = 5 singlet survives the drive; pairings grow with xi", ok)


def test_criterion_5_critical_coupling_slope(max_rate_estimates):
    ok = all(e is not None for e in max_rate_estimates)
    vs = np.array([e.v for e in max_rate_estimates], dtype=float)
    xs = np.array([e.xi_c for e in max_rate_estimates])
    slope = np.polyfit(vs, xs, 1)[0]
    ok &= 3.0 <= slope <= 3.25
    report(5, f"max-rate critical couplings rise with slope {slope:.3f} per pair", ok)


def test_criterion_6_separatrix_closeness(max_rate_estimates):
    points = separatrix_from_estimates(max_rate_estimates)
    high_v = [p for p in points if p.v >= 4]
    worst = max(p.rel_dev for p in high_v)
    ok = bool(high_v) and worst < 0.15
    report(6, f"critical energies track the square law to {worst:.3f} for v >= 4", ok)


def test_criterion_7_casimir_spectrum():
    N = 50
    levels = casimir_spectrum(U2Rep(N))
    ok = len(levels) == N + 1
    by_v: dict[int, list] = {}
    for lv in levels:
        ok &= abs(lv.value - (N**2 - 4 * N * lv.v * (1 - lv.v / N))) <= 1e-9
        by_v.setdefault(lv.v, []).append(lv)
    for v, members in by_v.items():
        ok &= len(members) == (1 if v == 25 else 2)
    report(7, "so(2) Casimir eigenvalues and branch doubling at N = 50", ok)


def test_criterion_8_representation_doubling():
    rc = classify_pairing_sp2(50)
    ok = rc.even.count == 26 and rc.odd.count == 25
    for branch in (rc.even, rc.odd):
        e = np.array([lv.energy for lv in branch.levels])
        ok &= bool(np.max(np.abs(e + e[::-1])) <= 1e-9)
    report(8, "pairing operator splits into 26 + 25 levels with +- symmetry", ok)


def test_criterion_9_asymptotic_multiplicities():
    # Frozen by convergence scan at eta = 4 (spread = width of the lowest group,
    # certified by the 800/900 probe):
    #   xi3:  1.0 -> 7e-2   2.0 -> 1.5e-4   4.0 -> 6e-13   (frozen: 4.0)
    #   xi4:  0.45 -> 4e-4  0.47 -> 1.5e-6  0.48 -> 2.7e-9 (frozen: 0.48;
    #         the quartic drive unbinds the spectrum at xi4 >= 0.5)
    triple = converged_spectrum(HamiltonianSpec(eta=4.0, xi3=4.0), 800, 900, 1e-8)
    quad = converged_spectrum(HamiltonianSpec(eta=4.0, xi4=0.48), 800, 900, 1e-8)
    ok = degeneracy_groups(triple, TOL_DEG)[0].multiplicity == 3
    ok &= degeneracy_groups(quad, TOL_DEG)[0].multiplicity == 4
    for spec, k in ((HamiltonianSpec(eta=4.0, xi3=4.0), 3), (HamiltonianSpec(eta=4.0, xi4=0.48), 4)):
        poly = standard_hamiltonian(spec)
        ok &= detect_modulus(poly) == k
        try:
            split(assemble(poly, FockSpace(800)), k)
        except SymmetryViolation:
            ok = False
    report(9, "triplet (three-photon) and quartet (four-photon) ground groups", ok)


def test_criterion_10_algebra_identity_suite():
    space = FockSpace(40)
    tol = 1e-12 * 40**2
    ok = True

    # symplectic pair algebra
    fp, fm, fz = ladder_poly(1, 2, 0), ladder_poly(1, 0, 2), ladder_poly(1, 1, 1)
    ok &= commutator_residual(fz, fp, ladder_poly(2, 2, 0), space) <= tol
    ok &= commutator_residual(fz, fm, ladder_poly(-2, 0, 2), space) <= tol
    ok &= commutator_residual(fp, fm, number_poly((-2.0, -4.0)), space) <= tol

    # rescaled su(1,1) form
    hp, hm = ladder_poly(0.5, 2, 0), ladder_poly(0.5, 0, 2)
    hz = number_poly((0.25, 0.5))
    ok &= commutator_residual(hz, hp, hp, space) <= tol
    ok &= commutator_residual(hp, hm, -2.0 * hz, space) <= tol

    # contracted oscillator algebra
    a, ad = ladder_poly(1, 0, 1), ladder_poly(1, 1, 0)
    nhat = ladder_poly(1, 1, 1)
    ident = number_poly((1.0,))
    zero = number_poly((0.0,))
    ok &= commutator_residual(a, ad, ident, space) <= tol
    ok &= commutator_residual(a, nhat, a, space) <= tol
    ok &= commutator_residual(ad, nhat, -1.0 * ad, space) <= tol
    ok &= commutator_residual(ad, ident, zero, space) <= tol
    ok &= commutator_residual(a, ident, zero, space) <= tol

    # compact two-boson algebra
    rep = U2Rep(40)
    gp, gm, gz = u2_generators(rep)
    u2tol = 1e-11 * rep.N**2
    ok &= np.max(np.abs(gz @ gp - gp @ gz - gp)) <= u2tol
    ok &= np.max(np.abs(gp @ gm - gm @ gp - 2 * gz)) <= u2tol

    # quartic pairing rewrite on the interior block
    p2 = poly_to_dense(pairing_poly(2), space)
    p4 = poly_to_dense(pairing_poly(4), space)
    rhs = p2 @ p2 - poly_to_dense(number_poly((2.0, 2.0, 2.0)), space)
    ok &= np.max(np.abs((p4 - rhs)[:37, :37])) <= tol

    # exact complementarity of the two-boson pairing and Casimir
    total = pairing_prime_matrix(rep) + casimir_matrix(rep)
    ok &= np.array_equal(total, rep.N**2 * np.eye(rep.dim))

    report(10, "commutator and operator identities hold at machine precision", ok)


# Twenty fixed parameter records standing in for random draws (the artifact
# is RNG-free); they cover every coupling and both correction orders.
RANDOM_SPECS = [
    HamiltonianSpec(eta=0.7, xi=0.3),
    HamiltonianSpec(eta=2.0, xi=1.7),
    HamiltonianSpec(eta=5.5, xi=0.05),
    HamiltonianSpec(eta=1.3, xi3=0.4),
    HamiltonianSpec(eta=3.1, xi3=1.1),
    HamiltonianSpec(eta=4.4, xi4=0.21),
    HamiltonianSpec(eta=0.2, xi4=0.44),
    HamiltonianSpec(eta=2.8, xi2p=0.15),
    HamiltonianSpec(eta=1.9, xi=0.6, xi2p=0.08),
    HamiltonianSpec(eta=3.7, xi=0.9, xi4=0.12),
    HamiltonianSpec(eta=0.0, xi=2.4),
    HamiltonianSpec(eta=6.2, xi=0.01),
    HamiltonianSpec(eta=2.2, xi3=0.7, xi4=0.1),
    HamiltonianSpec(eta=1.1, xi=0.33, xi3=0.21),
    HamiltonianSpec(eta=4.9, xi2p=0.4),
    HamiltonianSpec(eta=0.5),
    HamiltonianSpec(eta=3.3, xi=1.2, higher=HigherOrderCorrections(squeeze3=0.05, detuning3=0.1)),
    HamiltonianSpec(eta=2.6, xi4=0.3, higher=HigherOrderCorrections(kerr4=0.02, quad_squeeze4=0.04)),
    HamiltonianSpec(eta=1.6, xi=0.8, higher=HigherOrderCorrections(number_squeeze3=0.06)),
    HamiltonianSpec(eta=5.1, xi=0.5, xi3=0.05, xi4=0.02),
]


def test_criterion_11_determinism_and_sector_sum(tmp_path):
    ok = True
    for i, spec in enumerate(RANDOM_SPECS):
        n_max = 40 + (i % 3) * 10  # 40, 50, 60
        poly = standard_hamiltonian(spec)
        matrix = assemble(poly, FockSpace(n_max))
        k = detect_modulus(poly)
        union = np.sort(
            np.concatenate(
                [eigen(s.block) for s in split(matrix, k).sectors]
            )
        )
        full = np.sort(np.linalg.eigvalsh(matrix.to_dense()))
        scale = max(1.0, float(np.max(np.abs(full))))
        ok &= bool(np.max(np.abs(union - full)) <= 1e-10 * scale)

    varied = RANDOM_SPECS[0]
    plan = SweepPlan(
        varying="eta",
        grid=(varied.eta, varied.eta + 0.1, varied.eta + 0.2),
        fixed=varied,
        n_max=60,
        n_probe=90,
    )
    first = emit_csv(run_sweep(plan, threads=1), tmp_path / "a.csv")
    second = emit_csv(run_sweep(plan, threads=4), tmp_path / "b.csv")
    ok &= first.read_bytes() == second.read_bytes()
    report(11, "sectored spectra equal full spectra; CSV reruns byte-identical", ok)
