"""Decoherence-free subspaces of N two-level atoms in a leaky optical cavity.

The package builds the truncated atom-cavity Hilbert space, constructs
the trapped (decoherence-free) subspace, propagates the no-emission
conditional dynamics, samples quantum-jump trajectories, and carries a
closed-form weak-driving model of the two-atom system used to
cross-validate the numerics.
"""

from .analytic import (OverdampedError, SlowModel, ZenoReport, build_slow_model,
                       effective_rates, entangling_pulse_duration, final_dfs_state,
                       omega_pm, p0_closed_form, slow_amplitudes, slow_propagator,
                       zeno_timescale_check)
from .dfs import (DfsBasis, dfs_basis, dfs_dimension, dfs_projector, dicke_degeneracy,
                  export_basis, generating_states)
from .dynamics import (EnsembleResult, Schedule, Trajectory, conditional_state, fidelity,
                       jump_operators, no_detection_mixture, no_photon_probability,
                       propagate_conditional, propagate_schedule, run_ensemble,
                       sample_trajectory)
from .hamiltonians import (Pulse, conditional_hamiltonian, laser_hamiltonian,
                           photon_loss_density)
from .hilbert import (DeskScaleError, HilbertSpace, SystemParams, atomic_lowering,
                      build_space, cavity_annihilation)

__version__ = "0.1.0"

__all__ = [
    "DeskScaleError", "DfsBasis", "EnsembleResult", "HilbertSpace", "OverdampedError",
    "Pulse", "Schedule", "SlowModel", "SystemParams", "Trajectory", "ZenoReport",
    "atomic_lowering", "build_slow_model", "build_space", "cavity_annihilation",
    "conditional_hamiltonian", "conditional_state", "dfs_basis", "dfs_dimension",
    "dfs_projector", "dicke_degeneracy", "effective_rates", "entangling_pulse_duration",
    "export_basis", "fidelity", "final_dfs_state", "generating_states", "jump_operators",
    "laser_hamiltonian", "no_detection_mixture", "no_photon_probability", "omega_pm",
    "p0_closed_form", "photon_loss_density", "propagate_conditional", "propagate_schedule",
    "run_ensemble", "sample_trajectory", "slow_amplitudes", "slow_propagator",
    "zeno_timescale_check",
]
