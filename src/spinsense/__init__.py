"""Collective-spin sensing under local dephasing.

Permutation-invariant simulation of N two-level systems, exact splitting of
field rotation and dephasing for parallel noise, quantum and classical
Fisher information, and optimal-interrogation-time experiments.
"""

from .dicke import (BlockOperator, DensityOperator, DickeSpace, Sector,
                    StateVector, build_space, coherent_state,
                    collective_operator, cumulative_degeneracy, degeneracy,
                    dicke_dimension, ghz_state, simultaneous_probe)
from .dephasing import (DephasingSuperoperator, NoiseKind, NoiseSpec,
                        TransferKernels, build_dephasing_superoperator,
                        build_transfer_kernels, gamma_profile,
                        integrated_strength)
from .dynamics import (EvolutionResult, FieldParams,
                       HilbertComparison, coupled_multiplets, dephase,
                       embed_collective, evolve, full_gkls_reference,
                       full_hilbert_reference, hamiltonian, state_fidelity,
                       unitary)
from .errors import (AssumptionViolated, ExperimentFailed, InvalidArgument,
                     NumericalError, SingularQfim, SpinsenseError)
from .estimation import (BoundValue, PovmSet, QfimMatrix, bound_individual,
                         bound_simultaneous, cfim, generator_operator,
                         partial_rho, qfim)
from .experiments import (PowerLawFit, RefinementMeta, ScanRow, ScanRows,
                          SweepConfig, SweepResult, SweepScenario, TimeGrid,
                          fit_power_law, husimi_grid, husimi_map,
                          husimi_normalization, scan_particles, sweep_time)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolated", "BlockOperator", "BoundValue",
    "DensityOperator", "DephasingSuperoperator", "DickeSpace",
    "EvolutionResult", "ExperimentFailed", "FieldParams",
    "HilbertComparison", "InvalidArgument", "NoiseKind", "NoiseSpec",
    "NumericalError", "PovmSet", "PowerLawFit", "QfimMatrix",
    "RefinementMeta", "ScanRow", "ScanRows", "Sector",
    "SingularQfim", "SpinsenseError", "StateVector", "SweepConfig", "SweepResult",
    "SweepScenario", "TimeGrid", "TransferKernels", "bound_individual",
    "bound_simultaneous", "build_dephasing_superoperator", "build_space",
    "build_transfer_kernels", "cfim", "coherent_state",
    "collective_operator", "coupled_multiplets", "cumulative_degeneracy",
    "degeneracy", "dephase", "dicke_dimension", "embed_collective", "evolve",
    "fit_power_law", "full_gkls_reference", "full_hilbert_reference",
    "gamma_profile", "generator_operator", "ghz_state", "hamiltonian",
    "husimi_grid", "husimi_map", "husimi_normalization",
    "integrated_strength", "partial_rho", "qfim", "scan_particles",
    "simultaneous_probe", "state_fidelity", "sweep_time", "unitary",
]
