"""Maximum-likelihood homodyne tomography with Gram-operator bandwidth analysis.

Conventions throughout: hbar = 1, x = (a + a^dag)/sqrt(2), quadrature
overlaps <x_theta|n> = exp(-i n theta) psi_n(x), Wigner functions
normalized so the phase-space integral of W is 1.
"""

from __future__ import annotations

from .errors import (DegenerateStateError, EmptyDataError, EmptyMeasurementError,
                     InvalidInputError, NumericalConsistencyError)
from .fock import (PhaseSpaceGrid, cat_state, coherent_state, fidelity, fock_state,
                   hermite_functions, kept_weight, pure_density, wigner, wigner_points)
from .frames import (OperatorFrame, PartialInversionWarning, dual_frame, from_coords,
                     hadamard_identity_check, linear_inversion, modal_weighting,
                     operator_frame, operator_frame_apply, to_coords)
from .maxlik import (TOL_GAP, Dataset, ReconstructionResult,
                     born_residual, expected_probabilities, extremal_residual,
                     log_likelihood, maxlik_solve, r_operator, restrict_to_subspace)
from .povm import (GramAnalysis, HomodyneConfig, PovmSet, build_homodyne_povm,
                   effective_rank, gram_matrix_operator_space, gram_matrix_state_space,
                   gram_operator, gram_spectrum, subspace_basis)
from .simulate import (NoiseModel, SweepResult, dimension_sweep, generate_counts,
                       stability_study, trial_generator)

__version__ = "0.1.0"

__all__ = [
    "DegenerateStateError", "EmptyDataError", "EmptyMeasurementError",
    "InvalidInputError", "NumericalConsistencyError",
    "PhaseSpaceGrid", "cat_state", "coherent_state", "fidelity", "fock_state",
    "hermite_functions", "kept_weight", "pure_density", "wigner", "wigner_points",
    "OperatorFrame", "PartialInversionWarning", "dual_frame", "from_coords",
    "hadamard_identity_check", "linear_inversion", "modal_weighting",
    "operator_frame", "operator_frame_apply", "to_coords",
    "TOL_GAP", "Dataset", "ReconstructionResult",
    "born_residual", "expected_probabilities", "extremal_residual",
    "log_likelihood", "maxlik_solve", "r_operator", "restrict_to_subspace",
    "GramAnalysis", "HomodyneConfig", "PovmSet", "build_homodyne_povm",
    "effective_rank", "gram_matrix_operator_space", "gram_matrix_state_space",
    "gram_operator", "gram_spectrum", "subspace_basis",
    "NoiseModel", "SweepResult", "dimension_sweep", "generate_counts",
    "stability_study", "trial_generator",
    "__version__",
]
