"""Pilot-wave dynamics on periodic grids.

Split-step spectral evolution of one- and two-dimensional wavefunctions,
trajectory transport along the guidance field or the equivalent Newton
form with the quantum force, ensemble equivariance checks, and many-body
center-of-mass experiments built from factorized product states.
"""

from .wavefield import (
    Grid,
    PhysicalParams,
    Wavefunction,
    init_gaussian,
    init_plane_wave,
    make_grid,
    node_mask,
    norm,
    normalize,
    position_moments,
    spectral_derivative,
    velocity_field,
)
from .propagator import (
    AccuracyWarning,
    EvolutionRecord,
    Free,
    Harmonic,
    Linear,
    PairwiseHarmonic,
    PotentialSpec,
    SumPotential,
    continuity_residual,
    evaluate_potential,
    evolve,
    probability_current,
    step,
)
from .quantum_potential import (
    QFields,
    averaged_quantum_force,
    compute_qfields,
    hamilton_jacobi_energy,
)
from .trajectories import (
    Trajectory,
    TrajectoryAbort,
    crosscheck,
    integrate_guidance,
    integrate_guidance_batch,
    integrate_newton,
    integrate_newton_batch,
)
from .ensemble import (
    EnsembleSpec,
    equivariance_distance,
    evolve_ensemble,
    sample_equilibrium,
)
from .manybody import (
    CMResult,
    FactorizedNBody,
    SymmetrizedTwoBody,
    build_symmetrized,
    no_tunneling_check,
    run_bec_experiment,
    run_cm_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyWarning",
    "CMResult",
    "EnsembleSpec",
    "EvolutionRecord",
    "FactorizedNBody",
    "Free",
    "Grid",
    "Harmonic",
    "Linear",
    "PairwiseHarmonic",
    "PhysicalParams",
    "PotentialSpec",
    "QFields",
    "SumPotential",
    "SymmetrizedTwoBody",
    "Trajectory",
    "TrajectoryAbort",
    "Wavefunction",
    "averaged_quantum_force",
    "build_symmetrized",
    "compute_qfields",
    "continuity_residual",
    "crosscheck",
    "equivariance_distance",
    "evaluate_potential",
    "evolve",
    "evolve_ensemble",
    "hamilton_jacobi_energy",
    "init_gaussian",
    "init_plane_wave",
    "integrate_guidance",
    "integrate_guidance_batch",
    "integrate_newton",
    "integrate_newton_batch",
    "make_grid",
    "no_tunneling_check",
    "node_mask",
    "norm",
    "normalize",
    "position_moments",
    "probability_current",
    "run_bec_experiment",
    "run_cm_experiment",
    "sample_equilibrium",
    "spectral_derivative",
    "step",
    "velocity_field",
]
