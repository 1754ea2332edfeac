"""Spectral analysis of driven Kerr oscillators.

Assembles normal-ordered boson Hamiltonians as exact banded matrices on a
truncated Fock basis, diagonalizes them by conserved mod-k sector, labels
degeneracies with quasi-spin quantum numbers, and locates the excited-state
phase-transition structure (gap closures, critical couplings, separatrices).
"""

from .classify import (
    CrossingEvent,
    DegeneracyGroup,
    KerrLevel,
    LevelPair,
    QuasiSpinLabel,
    TrackedCrossing,
    TwoBosonState,
    degeneracy_groups,
    detect_crossings,
    kerr_exact_levels,
    track_crossing_location,
)
from .eigensolve import EigenSolverError, eigen, eigenvalue
from .esqpt import (
    CriticalPointEstimate,
    GapCurve,
    SeparatrixModel,
    SeparatrixPoint,
    gap_curves,
    phase3_energy,
    separatrix_from_estimates,
    xi_c_difference_bound,
    xi_c_linear_extrapolation,
    xi_c_max_rate,
)
from .fock import (
    BandedSymMatrix,
    FockSpace,
    HamiltonianSpec,
    HigherOrderCorrections,
    NonHermitianError,
    NumericFailure,
    OperatorPoly,
    OperatorTerm,
    assemble,
    commutator_residual,
    matrix_element,
    pairing_poly,
    standard_hamiltonian,
)
from .sectors import MOD_ALL, SectorDecomposition, SymmetryViolation, detect_modulus, split
from .sweep import ConvergedSpectrum, SpectrumGrid, SweepPlan, converged_spectrum, run_sweep
from .u2 import (
    RepClassification,
    U2Rep,
    casimir_spectrum,
    classify_pairing_sp2,
    contraction_check,
    pairing_prime_spectrum,
    so2_generator,
)

__version__ = "0.1.0"
