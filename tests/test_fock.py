import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrspec.fock import (
    COUPLING_DERIVATIVES,
    COUPLING_FIELDS,
    BandedSymMatrix,
    FockSpace,
    HamiltonianSpec,
    HigherOrderCorrections,
    NonHermitianError,
    OperatorPoly,
    OperatorTerm,
    assemble,
    commutator_residual,
    ladder_poly,
    matrix_element,
    number_poly,
    pairing_poly,
    poly_to_dense,
    standard_hamiltonian,
)

from conftest import dense_poly_oracle, dense_term_oracle


class TestMatrixElement:
    def test_two_photon_creation_on_vacuum(self):
        row, value = matrix_element(OperatorTerm(1, 2, 0), 0, FockSpace(5))
        assert row == 2
        assert value == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_number_operator_is_exact(self):
        assert matrix_element(OperatorTerm(1, 1, 1), 5, FockSpace(5)) == (5, 5.0)

    def test_weighted_raising_against_oracle(self):
        # a^dag^2 n acting on |3>: weight evaluated before raising
        row, value = matrix_element(OperatorTerm(1, 2, 0, (0.0, 1.0)), 3, FockSpace(6))
        oracle = dense_term_oracle(1, 2, 0, (0.0, 1.0), 6)
        assert row == 5
        assert value == pytest.approx(3 * np.sqrt(20), rel=1e-14)
        assert value == pytest.approx(oracle[5, 3], rel=1e-12)

    def test_truncation_returns_none(self):
        space = FockSpace(4)
        assert matrix_element(OperatorTerm(1, 2, 0), 3, space) is None  # past n_max
        assert matrix_element(OperatorTerm(1, 0, 2), 1, space) is None  # below vacuum

    def test_out_of_basis_n_rejected(self):
        with pytest.raises(ValueError):
            matrix_element(OperatorTerm(1, 0, 0), 7, FockSpace(4))

    def test_malformed_basis_and_terms_rejected(self):
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            FockSpace(-1)
        with pytest.raises(ValueError, match="ladder powers must be non-negative"):
            OperatorTerm(1.0, -1, 0)
        with pytest.raises(ValueError, match="at least one coefficient"):
            OperatorTerm(1.0, 1, 1, ())

    @pytest.mark.parametrize("p", range(5))
    @pytest.mark.parametrize("q", range(5))
    @pytest.mark.parametrize("weight", [(1.0,), (0.5, -1.0), (0.0, 1.0, 0.25), (2.0, 0.0, -0.5, 0.125)])
    def test_all_term_shapes_match_dense_oracle(self, p, q, weight):
        # every shape p, q <= 4, weight degree <= 3, on n_max <= 12, built
        # element by element and as a whole matrix
        term = OperatorTerm(0.7, p, q, weight)
        for n_max in (5, 12):
            space = FockSpace(n_max)
            built = np.zeros((n_max + 1, n_max + 1))
            for n in range(n_max + 1):
                hit = matrix_element(term, n, space)
                if hit is not None:
                    built[hit[0], n] += hit[1]
            expected = dense_term_oracle(0.7, p, q, weight, n_max)
            np.testing.assert_allclose(built, expected, rtol=1e-12, atol=1e-12)
            whole = poly_to_dense(OperatorPoly((term,)), space)
            np.testing.assert_allclose(whole, expected, rtol=1e-12, atol=1e-12)


class TestAssemble:
    def test_kerr_diagonal_eta4(self):
        m = assemble(standard_hamiltonian(HamiltonianSpec(eta=4)), FockSpace(5))
        np.testing.assert_array_equal(m.diagonal, [0, -4, -6, -6, -4, 0])

    def test_two_photon_drive_offdiagonals_only(self):
        m = assemble(OperatorPoly((OperatorTerm(-1, 2, 0), OperatorTerm(-1, 0, 2))), FockSpace(2))
        dense = m.to_dense()
        assert dense[0, 2] == dense[2, 0] == pytest.approx(-np.sqrt(2), abs=1e-15)
        assert np.all(dense.diagonal() == 0)

    def test_empty_poly_is_zero_matrix(self):
        m = assemble(OperatorPoly(()), FockSpace(4))
        np.testing.assert_array_equal(m.to_dense(), np.zeros((5, 5)))

    def test_exact_symmetry_bit_for_bit(self):
        poly = standard_hamiltonian(HamiltonianSpec(eta=2.3, xi3=0.7, xi2p=0.11))
        dense = assemble(poly, FockSpace(30)).to_dense()
        assert np.array_equal(dense, dense.T)

    def test_equals_elementwise_term_sum_exactly(self):
        poly = standard_hamiltonian(HamiltonianSpec(eta=1.5, xi=0.3, xi4=0.05))
        space = FockSpace(25)
        banded = assemble(poly, space).to_dense()
        np.testing.assert_array_equal(banded, poly_to_dense(poly, space))

    def test_dense_skips_zero_coefficient_terms(self):
        # the zero term's infinite weight would put nan entries in the matrix
        space = FockSpace(6)
        poly = pairing_poly(2) + OperatorPoly((OperatorTerm(0.0, 1, 1, (np.inf,)),))
        want = poly_to_dense(pairing_poly(2), space)
        np.testing.assert_array_equal(poly_to_dense(poly, space), want)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            assemble(OperatorPoly((OperatorTerm(1.0, 2, 0),)), FockSpace(5))

    def test_bandwidth_tracks_active_couplings(self):
        cases = [
            (HamiltonianSpec(eta=3), 0),
            (HamiltonianSpec(eta=3, xi=1), 2),
            (HamiltonianSpec(eta=3, xi2p=0.2), 2),
            (HamiltonianSpec(eta=3, xi3=0.1), 3),
            (HamiltonianSpec(eta=3, xi4=0.1), 4),
        ]
        for spec, width in cases:
            assert standard_hamiltonian(spec).bandwidth() == width

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.integers(0, 3),
        q=st.integers(0, 3),
        coeff=st.floats(-4, 4, allow_nan=False),
        w1=st.floats(-2, 2, allow_nan=False),
    )
    def test_hermitian_closure_assembles_to_oracle(self, p, q, coeff, w1):
        terms = [OperatorTerm(coeff, p, q, (1.0, w1))]
        if p != q:
            terms.append(OperatorTerm(coeff, q, p, (1.0, w1)))
        poly = OperatorPoly(tuple(terms))
        assert poly.is_hermitian()
        dense = assemble(poly, FockSpace(10)).to_dense()
        np.testing.assert_allclose(dense, dense_poly_oracle(poly, 10), rtol=1e-12, atol=1e-12)


class TestStandardHamiltonian:
    def test_bare_kerr_single_diagonal_term(self):
        poly = standard_hamiltonian(HamiltonianSpec())
        assert len(poly.terms) == 1
        n = np.arange(8.0)
        np.testing.assert_array_equal(
            assemble(poly, FockSpace(7)).diagonal, n * (n - 1)
        )

    def test_driven_form_has_three_terms(self):
        poly = standard_hamiltonian(HamiltonianSpec(eta=6, xi=1))
        assert len(poly.terms) == 3
        steps = sorted(t.step for t in poly.terms)
        assert steps == [-2, 0, 2]

    def test_four_photon_hamiltonian(self):
        poly = standard_hamiltonian(HamiltonianSpec(eta=0, xi4=0.05))
        expected = number_poly((0.0, -1.0, 1.0)) + pairing_poly(4, -0.05)
        space = FockSpace(12)
        np.testing.assert_array_equal(
            assemble(poly, space).to_dense(), assemble(expected, space).to_dense()
        )

    def test_number_weighted_squeeze_matches_literal_product(self):
        # -(a^dag^2 (a^dag a) + (a^dag a) a^2) written as explicit matrix products
        spec = HamiltonianSpec(xi2p=0.37)
        built = assemble(standard_hamiltonian(spec), FockSpace(8)).to_dense()
        n = np.arange(9.0)
        kerr = np.diag(n * (n - 1))
        ad2 = dense_term_oracle(1, 2, 0, (1.0,), 8)
        nhat = np.diag(n)
        literal = kerr - 0.37 * (ad2 @ nhat + nhat @ ad2.T)
        np.testing.assert_allclose(built, literal, rtol=1e-12, atol=1e-12)

    def test_third_and_fourth_order_corrections(self):
        higher = HigherOrderCorrections(
            detuning3=0.2, kerr3=0.05, squeeze3=0.1, number_squeeze3=0.03,
            detuning4=0.07, kerr4=0.02, cubic4=0.004, quad_squeeze4=0.06,
        )
        built = assemble(
            standard_hamiltonian(HamiltonianSpec(eta=1.0, higher=higher)), FockSpace(8)
        ).to_dense()
        n = np.arange(9.0)
        nhat = np.diag(n)
        ad2 = dense_term_oracle(1, 2, 0, (1.0,), 8)
        ad4 = dense_term_oracle(1, 4, 0, (1.0,), 8)
        literal = (
            np.diag(-1.0 * n + n * (n - 1))
            + np.diag(-0.2 * n - 0.05 * n * (n - 1)) + 0.1 * (ad2 + ad2.T)
            + 0.03 * (ad2 @ nhat + nhat @ ad2.T)
            + np.diag(-0.07 * n - 0.02 * n * (n - 1))
            - 0.004 * np.diag(n**3 - 3 * n**2 - 2 * n)
            + 0.06 * (ad4 + ad4.T)
        )
        np.testing.assert_allclose(built, literal, rtol=1e-12, atol=1e-12)


class TestCommutators:
    # scale-aware machine-precision bound for dense float products
    def _tol(self, n_max):
        return 1e-12 * max(1.0, n_max**2)

    def test_pair_ladder_commutator(self):
        space = FockSpace(30)
        resid = commutator_residual(
            ladder_poly(1, 2, 0), ladder_poly(1, 0, 2), number_poly((-2.0, -4.0)), space
        )
        assert resid < self._tol(30)

    def test_number_raises_pair_by_two(self):
        space = FockSpace(30)
        resid = commutator_residual(
            ladder_poly(1, 1, 1), ladder_poly(1, 2, 0), ladder_poly(2, 2, 0), space
        )
        assert resid < self._tol(30)

    def test_canonical_pair_on_interior(self):
        space = FockSpace(20)
        resid = commutator_residual(
            ladder_poly(1, 0, 1), ladder_poly(1, 1, 0), number_poly((1.0,)), space
        )
        assert resid < self._tol(20)

    def test_su11_rescaled_generators(self):
        space = FockSpace(30)
        half_pair_up = ladder_poly(0.5, 2, 0)
        half_pair_dn = ladder_poly(0.5, 0, 2)
        fz = number_poly((0.25, 0.5))  # (n + 1/2)/2
        assert commutator_residual(fz, half_pair_up, half_pair_up, space) < self._tol(30)
        assert (
            commutator_residual(half_pair_up, half_pair_dn, -2.0 * fz, space)
            < self._tol(30)
        )

    def test_quartic_pairing_identity(self):
        # a^dag^4 + a^4 = (a^dag^2 + a^2)^2 - 2n(n+1) - 2 on the interior block
        space = FockSpace(30)
        p2 = poly_to_dense(pairing_poly(2), space)
        p4 = poly_to_dense(pairing_poly(4), space)
        rhs = p2 @ p2 - poly_to_dense(number_poly((2.0, 2.0, 2.0)), space)
        interior = slice(0, 27)
        assert np.max(np.abs((p4 - rhs)[interior, interior])) < self._tol(30)

    def test_basis_below_the_interior_block_refused(self):
        # a^dag^4 needs n_max >= 4 to leave a one-state interior
        with pytest.raises(ValueError, match="too small for interior block of power 4"):
            commutator_residual(
                ladder_poly(1, 4, 0), ladder_poly(1, 0, 1), ladder_poly(0, 0, 0), FockSpace(3)
            )
        assert commutator_residual(
            ladder_poly(1, 0, 1), ladder_poly(1, 1, 0), number_poly((1.0,)), FockSpace(1)
        ) == 0.0

    def test_interior_excludes_truncation_artifacts(self):
        # outside the interior block the truncated product is wrong by design
        space = FockSpace(20)
        fp = poly_to_dense(ladder_poly(1, 2, 0), space)
        fm = poly_to_dense(ladder_poly(1, 0, 2), space)
        full = fp @ fm - fm @ fp - poly_to_dense(number_poly((-2.0, -4.0)), space)
        assert np.max(np.abs(full[19:, 19:])) > 1.0


# dH/d(field) of standard_hamiltonian written out by hand, the reference for the
# derived COUPLING_DERIVATIVES table
HAND_DERIVATIVES = {
    "eta": number_poly((0.0, -1.0)),
    "xi": pairing_poly(2, -1.0),
    "xi3": pairing_poly(3, -1.0),
    "xi4": pairing_poly(4, -1.0),
    "xi2p": OperatorPoly(
        (OperatorTerm(-1.0, 2, 0, (0.0, 1.0)), OperatorTerm(-1.0, 0, 2, (0.0, 1.0)))
    ),
}


class TestCouplingDerivatives:
    def test_every_field_has_one(self):
        assert set(COUPLING_DERIVATIVES) == set(HAND_DERIVATIVES) == set(COUPLING_FIELDS)

    @pytest.mark.parametrize("field", COUPLING_FIELDS)
    @pytest.mark.parametrize("n", [5, 40, 900, 5000])
    def test_blocks_equal_the_hand_written_ones_bit_for_bit(self, field, n):
        got = assemble(COUPLING_DERIVATIVES[field], FockSpace(n))
        want = assemble(HAND_DERIVATIVES[field], FockSpace(n))
        assert got.bandwidth == want.bandwidth
        for g, w in zip(got.diagonals, want.diagonals, strict=True):
            assert g.tobytes() == w.tobytes()  # signed zeros included


class TestBandedSymMatrix:
    def test_trailing_zero_diagonals_are_dropped(self):
        a = np.array([1.0, 2.0, 3.0])
        zero_last = BandedSymMatrix((a, np.array([0.5, -0.5]), np.zeros(1)))
        assert zero_last.bandwidth == 1 and len(zero_last.diagonals) == 2
        assert BandedSymMatrix((a, np.zeros(2), np.zeros(1))).bandwidth == 0
        # a 2-state block stores empty diagonals beyond offset 1
        empty_last = BandedSymMatrix((a[:2], np.array([0.5]), np.zeros(0), np.zeros(0)))
        assert empty_last.bandwidth == 1
        assert BandedSymMatrix((a[:1], np.zeros(0), np.zeros(0))).bandwidth == 0
        # a zero diagonal below a nonzero one stays
        inner_zero = BandedSymMatrix((a, np.zeros(2), np.array([0.5])))
        assert inner_zero.bandwidth == 2
        dense = inner_zero.to_dense()
        assert (dense[1, 0], dense[0, 2]) == (0.0, 0.5)

    def test_leading_block_reports_its_own_bandwidth(self):
        m = assemble(standard_hamiltonian(HamiltonianSpec(xi=1.0, xi4=0.2)), FockSpace(10))
        assert m.bandwidth == 4
        assert [m.leading(d).bandwidth for d in (1, 2, 3, 4, 5)] == [0, 0, 2, 2, 4]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BandedSymMatrix((np.array([1.0, np.nan]),))

    def test_shape_comes_from_the_diagonals(self):
        m = BandedSymMatrix((np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0]), np.array([0.25])))
        assert (m.dim, m.bandwidth) == (3, 2)
        with pytest.raises(ValueError, match="diagonal 0 must hold at least one entry"):
            BandedSymMatrix((np.zeros(0),))
        with pytest.raises(ValueError, match="diagonal 0 must hold at least one entry"):
            BandedSymMatrix(())
        with pytest.raises(ValueError, match="diagonal 1 must have length 2"):
            BandedSymMatrix((np.zeros(3), np.zeros(3)))
        with pytest.raises(ValueError, match="diagonal 3 must have length 0"):
            BandedSymMatrix((np.zeros(2), np.zeros(1), np.zeros(0), np.zeros(1)))

    def test_element_accessor(self):
        m = assemble(pairing_poly(2, -1.0), FockSpace(4)).to_dense()
        assert m[0, 2] == m[2, 0] == -np.sqrt(2)
        assert m[0, 1] == 0.0

    def test_immutable_storage(self):
        m = assemble(number_poly((0.0, 1.0)), FockSpace(3))
        with pytest.raises(ValueError):
            m.diagonal[0] = 5.0
