from fractions import Fraction

import numpy as np
import pytest

from kerrspec.fock import HamiltonianSpec, HigherOrderCorrections
from kerrspec.sectors import split
from kerrspec.u2 import (
    U2Rep,
    casimir_matrix,
    casimir_spectrum,
    classify_pairing_sp2,
    contraction_check,
    pairing_prime_matrix,
    pairing_prime_spectrum,
    so2_generator,
    u2_generators,
    u2_hamiltonian,
)
from kerrspec.u2 import _casimir


class TestU2Rep:
    def test_non_integer_label_refused(self):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            U2Rep(2.5)


class TestSo2Generator:
    def test_smallest_rep(self):
        g = so2_generator(U2Rep(1))
        np.testing.assert_array_equal(g, [[0, 1], [1, 0]])
        np.testing.assert_allclose(np.linalg.eigvalsh(g), [-1, 1], atol=1e-14)

    def test_three_state_ladder(self):
        w = np.linalg.eigvalsh(so2_generator(U2Rep(2)))
        np.testing.assert_allclose(w, [-2, 0, 2], atol=1e-13)

    def test_spectrum_is_integer_ladder(self):
        w = np.linalg.eigvalsh(so2_generator(U2Rep(50)))
        assert np.max(np.abs(w - np.round(w))) < 1e-9
        np.testing.assert_array_equal(np.round(w), np.arange(-50, 51, 2))


class TestCasimir:
    def test_top_pair_and_central_singlet(self):
        levels = casimir_spectrum(U2Rep(50))
        assert len(levels) == 51
        top = [l for l in levels if l.v == 0]
        assert len(top) == 2 and {l.pi_prime for l in top} == {1, -1}
        assert all(abs(l.value - 2500) < 1e-9 for l in top)
        central = [l for l in levels if l.v == 25]
        assert len(central) == 1 and central[0].pi_prime == 0
        assert abs(central[0].value) < 1e-9

    def test_small_rep_against_direct_square(self):
        rep = U2Rep(5)
        g = so2_generator(rep)
        direct = np.sort(np.linalg.eigvalsh(g @ g))
        labelled = casimir_spectrum(rep)
        mine = np.sort([l.value for l in labelled])
        np.testing.assert_allclose(mine, direct, atol=1e-10)
        v1 = sorted(l.value for l in labelled if l.v == 1)
        assert v1 == pytest.approx([9.0, 9.0], abs=1e-9)  # sigma = +-3

    def test_formula_for_all_v(self):
        N = 50
        for level in casimir_spectrum(U2Rep(N)):
            expected = N**2 - 4 * N * level.v * (1 - level.v / N)
            assert level.value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 50, 51, 300])
    def test_parity_blocks_match_the_dense_spectrum(self, N):
        rep = U2Rep(N)
        dense = np.sort(np.linalg.eigvalsh(casimir_matrix(rep)))[::-1]
        values = [level.value for level in casimir_spectrum(rep)]
        np.testing.assert_allclose(values, dense, rtol=0, atol=1e-12 * N * N)

    def test_parity_blocks_are_the_matrix_split_by_parity(self):
        rep = U2Rep(9)
        even, odd = (s.block for s in split(_casimir(rep), 2).sectors)
        dense = casimir_matrix(rep)
        np.testing.assert_array_equal(even.to_dense(), dense[0::2, 0::2])
        np.testing.assert_array_equal(odd.to_dense(), dense[1::2, 1::2])
        assert not np.any(dense[0::2, 1::2])

    @pytest.mark.parametrize("N", [1, 2, 3, 9, 50])
    def test_matrix_is_generator_squared_entry_by_entry(self, N):
        rep = U2Rep(N)
        g = so2_generator(rep)
        np.testing.assert_allclose(casimir_matrix(rep), g @ g, rtol=1e-14, atol=1e-12 * N * N)

    def test_casimir_commutes_with_generator(self):
        rep = U2Rep(50)
        g, c2 = so2_generator(rep), casimir_matrix(rep)
        assert np.max(np.abs(c2 @ g - g @ c2)) < 1e-9 * rep.N**2


class TestPairingPrime:
    def test_lowest_pairs(self):
        levels = pairing_prime_spectrum(U2Rep(50))
        assert levels[0].v == 0 and abs(levels[0].value) < 1e-9
        v1 = [l.value for l in levels if l.v == 1]
        assert v1 == pytest.approx([196.0, 196.0], abs=1e-9)

    def test_full_small_spectrum_with_doubling(self):
        levels = pairing_prime_spectrum(U2Rep(4))
        got = [(l.v, round(l.value, 9)) for l in levels]
        assert got == [(0, 0.0), (0, 0.0), (1, 12.0), (1, 12.0), (2, 16.0)] or got == [
            (0, -0.0), (0, 0.0), (1, 12.0), (1, 12.0), (2, 16.0)
        ]

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 50, 51, 300])
    def test_parity_blocks_match_the_dense_spectrum(self, N):
        rep = U2Rep(N)
        dense = np.sort(np.linalg.eigvalsh(pairing_prime_matrix(rep)))
        values = [level.value for level in pairing_prime_spectrum(rep)]
        np.testing.assert_allclose(values, dense, rtol=0, atol=1e-12 * N * N)

    def test_two_constructions_identical(self):
        rep = U2Rep(37)
        boson = pairing_prime_matrix(rep)
        from_casimir = rep.N**2 * np.eye(rep.dim) - casimir_matrix(rep)
        assert np.array_equal(boson, from_casimir)

    def test_sum_rule_exact(self):
        rep = U2Rep(50)
        total = pairing_prime_matrix(rep) + casimir_matrix(rep)
        assert np.array_equal(total, rep.N**2 * np.eye(rep.dim))


class TestU2Commutators:
    def test_su2_relations_on_rep(self):
        rep = U2Rep(50)
        fp, fm, fz = u2_generators(rep)
        tol = 1e-11 * rep.N**2
        assert np.max(np.abs(fz @ fp - fp @ fz - fp)) < tol
        assert np.max(np.abs(fz @ fm - fm @ fz + fm)) < tol
        assert np.max(np.abs(fp @ fm - fm @ fp - 2 * fz)) < tol


class TestRepresentationDoubling:
    def test_branch_sizes_and_j_at_n50(self):
        rc = classify_pairing_sp2(50)
        assert rc.even.count == 26 and rc.even.j == Fraction(25, 2)
        assert rc.odd.count == 25 and rc.odd.j == 12

    def test_odd_truncation_shares_j(self):
        rc = classify_pairing_sp2(5)
        assert rc.even.j == rc.odd.j == 1
        assert rc.even.count == rc.odd.count == 3

    @pytest.mark.parametrize("N", [48, 50, 49, 51])
    def test_branch_spectra_pair_up(self, N):
        rc = classify_pairing_sp2(N)
        for branch in (rc.even, rc.odd):
            e = np.array([l.energy for l in branch.levels])
            np.testing.assert_allclose(e, -e[::-1], atol=1e-9)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_refuses_a_basis_without_an_odd_state(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            classify_pairing_sp2(n_max)

    def test_refuses_a_non_integer_truncation(self):
        with pytest.raises(ValueError, match="n_max"):
            classify_pairing_sp2(2.5)

    @pytest.mark.parametrize("N", range(1, 41))
    def test_branch_j_follows_n_mod_4(self, N):
        # the representation-doubling rule: j = N/4 and N/4 - 1/2 at even N, (N - 1)/4 at odd N
        rc = classify_pairing_sp2(N)
        if N % 2 == 0:
            assert (rc.even.j, rc.odd.j) == (Fraction(N, 4), Fraction(N, 4) - Fraction(1, 2))
        else:
            assert rc.even.j == rc.odd.j == Fraction(N - 1, 4)
        for branch in (rc.even, rc.odd):
            assert branch.count == 2 * branch.j + 1

    def test_v_m_labels(self):
        rc = classify_pairing_sp2(50)
        for branch in (rc.even, rc.odd):
            for level in branch.levels:
                assert level.m == branch.j - level.v
                expected_sign = 1 if level.m > 0 else (-1 if level.m < 0 else 0)
                assert level.pi_prime == expected_sign


class TestContraction:
    def test_undriven_case_is_exact(self):
        assert contraction_check(HamiltonianSpec(eta=0.0, xi=0.0), 80, 5) == 0.0
        assert contraction_check(HamiltonianSpec(eta=3.0, xi=0.0), 80, 5) == 0.0

    def test_deviation_shrinks_with_rep_size(self):
        spec = HamiltonianSpec(eta=0.0, xi=1.0)
        d100 = contraction_check(spec, 100, 5)
        d400 = contraction_check(spec, 400, 5)
        assert d400 < d100

    def test_large_rep_bound(self):
        # calibrated: the deviation decays ~1/N and sits near 4e-3 at N=1600
        dev = contraction_check(HamiltonianSpec(eta=0.0, xi=1.0), 1600, 5)
        assert dev < 0.05

    def test_compact_hamiltonian_shape(self):
        m = u2_hamiltonian(2.0, 1.0, 40)
        assert m.dim == 41 and m.bandwidth == 2
        n = np.arange(41.0)
        np.testing.assert_array_equal(m.diagonal, -2 * n + n * (n - 1))

    @pytest.mark.parametrize(
        "args, message",
        [
            # 0 once divided by zero, 2.5 failed in numpy and "a" with a TypeError
            ((2.0, 1.0, 0), "^N must be a positive integer, got 0$"),
            ((2.0, 1.0, 2.5), "^N must be a positive integer, got 2.5$"),
            ((2.0, "a", 40), "^xi must be a finite real, got 'a'$"),
            ((float("nan"), 1.0, 40), "^eta must be a finite real, got nan$"),
        ],
    )
    def test_compact_hamiltonian_refuses_bad_arguments(self, args, message):
        with pytest.raises(ValueError, match=message):
            u2_hamiltonian(*args)

    def test_rejects_other_couplings(self):
        with pytest.raises(ValueError):
            contraction_check(HamiltonianSpec(eta=0.0, xi3=1.0), 100, 3)
        spec = HamiltonianSpec(xi=1.0, higher=HigherOrderCorrections(kerr3=0.1))
        with pytest.raises(ValueError, match="two-photon drive only"):
            contraction_check(spec, 100, 3)

    def test_level_count_and_unconverged_reference_refused(self):
        for n_levels in (0, 11):
            with pytest.raises(ValueError, match="need 0 < n_levels <= N"):
                contraction_check(HamiltonianSpec(xi=1.0), 10, n_levels)
        # True once compared as 1 level and returned 0.0
        with pytest.raises(ValueError, match="^n_levels must be a non-negative integer, got True$"):
            contraction_check(HamiltonianSpec(xi=1.0), 10, True)
        with pytest.raises(ValueError, match="^N must be a positive integer, got 10.0$"):
            contraction_check(HamiltonianSpec(xi=1.0), 10.0, 5)
        # a strong drive needs far more than 10 bosons for its low levels
        with pytest.raises(ValueError, match="Fock reference not converged for 5 levels at N=10"):
            contraction_check(HamiltonianSpec(xi=20.0), 10, 5)

    def test_all_zero_corrections_are_no_corrections(self):
        # standard_hamiltonian expands both specs to the same polynomial
        plain = contraction_check(HamiltonianSpec(xi=1.0), 100, 5)
        zero = contraction_check(HamiltonianSpec(xi=1.0, higher=HigherOrderCorrections()), 100, 5)
        assert zero == plain and 0.0 < plain < 0.1
