"""Decoherence-free subspaces of N two-level atoms in a leaky optical cavity.

The package builds the truncated atom-cavity Hilbert space, constructs
the trapped (decoherence-free) subspace, propagates the no-emission
conditional dynamics, samples quantum-jump trajectories, and carries a
closed-form weak-driving model of the two-atom system used to
cross-validate the numerics.
"""

from .analytic import (OverdampedError, SlowModel, ZenoReport, build_slow_model,
                       effective_rates, entangling_pulse_duration, omega_pm, p0_closed_form,
                       zeno_timescale_check)
from .dfs import (DfsBasis, dfs_basis, dfs_dimension, dicke_degeneracy, export_basis,
                  generating_states)
from .dynamics import (EnsembleResult, Schedule, Trajectory, propagate_conditional,
                       propagate_schedule, run_ensemble, sample_trajectory)
from .hamiltonians import (Pulse, conditional_hamiltonian, laser_hamiltonian,
                           photon_loss_density)
from .hilbert import (DeskScaleError, HilbertSpace, SystemParams, atomic_lowering,
                      build_space, cavity_annihilation)

__version__ = "0.1.0"

__all__ = [
    "DeskScaleError", "DfsBasis", "EnsembleResult", "HilbertSpace", "OverdampedError",
    "Pulse", "Schedule", "SlowModel", "SystemParams", "Trajectory", "ZenoReport",
    "atomic_lowering", "build_slow_model", "build_space", "cavity_annihilation",
    "conditional_hamiltonian", "dfs_basis", "dfs_dimension", "dicke_degeneracy",
    "effective_rates", "entangling_pulse_duration", "export_basis", "generating_states",
    "laser_hamiltonian", "omega_pm", "p0_closed_form", "photon_loss_density",
    "propagate_conditional", "propagate_schedule", "run_ensemble", "sample_trajectory",
    "zeno_timescale_check",
]
