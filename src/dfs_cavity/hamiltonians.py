"""Conditional (no-emission) Hamiltonian and laser driving terms.

The conditional Hamiltonian generating the dynamics between emission
events is

    H_cond = i g sum_i (b sigma_i^dag - b^dag sigma_i)
             - i gamma sum_i sigma_i^dag sigma_i  - i kappa b^dag b
             + H_laser,

with the Hermitian drive H_laser = (1/2) sum_i Omega_i sigma_i + h.c.
Its anti-Hermitian part is exactly -i(gamma * sum sigma^dag sigma +
kappa * b^dag b), so the norm of a conditionally evolved state decays at
the instantaneous emission rate.  Rabi frequencies stay fully complex:
their phases are physical and cannot be absorbed into the atomic basis.

H_cond is one table of (rows, cols, values): i g sqrt(n) for B = b J_plus
on the sigma_i positions of ``hilbert.lowering_entries`` shifted by one
photon block and -i g sqrt(n) on their transposes, -i(gamma n_exc + kappa n)
on the diagonal, and the drive on the sigma_i positions and their
transposes.  The dense functions scatter it onto zeros, the schedule
propagator makes it sparse; the values round as full-space products do.
The emission channels sqrt(2 kappa) b and sqrt(2 gamma) sigma_i are tables too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (HilbertSpace, _dense_zeros, atomic_lowering, cavity_annihilation,
                      check_budget, lowering_entries)


@dataclass(frozen=True)
class Pulse:
    """A rectangular drive segment: one complex Rabi frequency per atom.

    ``duration`` >= 0; an all-zero ``rabi`` vector is a lasers-off
    interval.  Schedules are built from these piecewise-constant
    segments, so the Hamiltonian is time-independent within each one.
    """

    rabi: tuple[complex, ...]
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "rabi", tuple(complex(r) for r in self.rabi))
        if not self.rabi:
            raise ValueError("pulse needs at least one Rabi frequency")
        if not all(map(cmath.isfinite, self.rabi)):
            raise ValueError("Rabi frequencies must be finite")
        if not math.isfinite(self.duration):
            raise ValueError(f"pulse duration must be finite, got {self.duration}")
        if self.duration < 0:
            raise ValueError(f"pulse duration must be >= 0, got {self.duration}")

    @classmethod
    def off(cls, n_atoms: int, duration: float) -> "Pulse":
        """Lasers-off interval of the given length."""
        return cls((0.0,) * n_atoms, duration)

    @property
    def n_atoms(self) -> int:
        return len(self.rabi)


@dataclass(frozen=True)
class Schedule:
    """Ordered piecewise-constant drive segments (all-zero rabi = lasers off)."""

    segments: tuple[Pulse, ...]

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if not segments:
            raise ValueError("schedule needs at least one segment")
        n = segments[0].n_atoms
        if any(seg.n_atoms != n for seg in segments):
            raise ValueError("all schedule segments must drive the same atom count")

    @property
    def total_duration(self) -> float:
        return float(sum(seg.duration for seg in self.segments))


def _check_pulse(space: HilbertSpace, pulse: Pulse) -> None:
    if pulse.n_atoms != space.n_atoms:
        raise ValueError(
            f"pulse drives {pulse.n_atoms} atoms but the space holds {space.n_atoms}")


def _drive_entries(space: HilbertSpace, pulse: Pulse) -> tuple[np.ndarray, ...]:
    """(rows, cols, values) of (1/2) sum_i Omega_i sigma_i + h.c.; signed zeros become +0.0."""
    rows, cols, atoms = lowering_entries(space)
    half = 0.5 * np.array(pulse.rabi)
    return (np.concatenate((rows, cols)), np.concatenate((cols, rows)),
            np.concatenate((half[atoms], np.conj(half)[atoms])) + 0j)


def _conditional_entries(space: HilbertSpace, pulse: Pulse | None) -> tuple[np.ndarray, ...]:
    """(rows, cols, values) of H_cond; no position repeats, and a value may be zero.

    Raises ValueError for a pulse that drives another atom count than the space holds.
    """
    if pulse is not None:
        _check_pulse(space, pulse)
    params, nc = space.params, space.n_configs
    rows, cols, atoms = lowering_entries(space)
    roots = np.sqrt(np.arange(space.dim) // nc)  # sqrt of each flat index's photon number
    # B has sqrt(n) at (excited in block n - 1, ground in block n) for each sigma_i
    # entry (ground, excited) of block n - 1
    below_top = rows < space.dim - nc
    b_rows, b_cols = cols[below_top], rows[below_top] + nc
    coupling = roots[b_cols] * params.g
    loss = np.zeros(space.dim)
    for i in range(space.n_atoms):  # one atom at a time, as sum_i gamma sigma_i^dag sigma_i rounds
        loss[cols[atoms == i]] += params.gamma
    loss += params.kappa * (roots * roots)  # sqrt(n)^2, not n
    diag = np.arange(space.dim)
    values = np.zeros(2 * coupling.size + space.dim, dtype=complex)
    values.imag = np.concatenate((coupling, -coupling, 0.0 - loss))  # real parts stay +0.0
    table = (np.concatenate((b_rows, b_cols, diag)), np.concatenate((b_cols, b_rows, diag)),
             values)
    if pulse is None:
        return table
    return tuple(np.concatenate(pair) for pair in zip(table, _drive_entries(space, pulse)))


def _channel_entries(space: HilbertSpace) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """Labels and (rows, cols, values) of the emission channels.

    "cavity", sqrt(2 kappa) b, then "atom_1" ... "atom_N", sqrt(2 gamma)
    sigma_i; channels with zero rate are left out.  The order is part of
    the deterministic RNG contract for trajectory sampling.
    """
    params, nc = space.params, space.n_configs
    labels, tables = [], []
    if params.kappa > 0:
        lower = np.arange(space.dim - nc)  # b moves block n + 1 down to block n
        labels.append("cavity")
        tables.append((lower, lower + nc, np.sqrt(2.0 * params.kappa) * np.sqrt(lower // nc + 1)))
    if params.gamma > 0:
        rows, cols, atoms = lowering_entries(space)
        rate = np.full(space.dim // 2, np.sqrt(2.0 * params.gamma))  # dim / 2 entries each
        labels += [f"atom_{i + 1}" for i in range(space.n_atoms)]
        tables += [(rows[atoms == i], cols[atoms == i], rate) for i in range(space.n_atoms)]
    return tuple(labels), tuple((r, c, v + 0j) for r, c, v in tables)


def _scatter(space: HilbertSpace, entries: tuple[np.ndarray, ...]) -> np.ndarray:
    """The entries on a dense dim x dim array; DeskScaleError over the budget."""
    rows, cols, values = entries
    h = _dense_zeros(space, "a dense Hamiltonian")
    h[rows, cols] = values
    return h


def laser_hamiltonian(space: HilbertSpace, pulse: Pulse) -> np.ndarray:
    """Hermitian drive (1/2) sum_i Omega_i sigma_i + h.c."""
    _check_pulse(space, pulse)
    return _scatter(space, _drive_entries(space, pulse))


def conditional_hamiltonian(space: HilbertSpace, pulse: Pulse | None = None) -> np.ndarray:
    """Non-Hermitian generator of the no-emission evolution at the space's rates.

    ``pulse=None`` means lasers off; a pulse that drives another atom
    count than the space holds raises ValueError, also when it is off.
    Returns a fresh, writeable array; DeskScaleError when it would exceed
    the budget.
    """
    return _scatter(space, _conditional_entries(space, pulse))


def photon_loss_density(space: HilbertSpace, state: np.ndarray) -> float:
    """Instantaneous emission probability density of a normalized state.

    Equals 2*kappa*<b^dag b> + 2*gamma*<sum_i sigma_i^dag sigma_i>, the
    decay rate -dP0/dt at t=0; zero exactly on trapped states.  Raises
    DeskScaleError when its N + 1 cached dense operators would exceed the
    budget together.
    """
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized, got norm {nrm!r}")
    check_budget("photon_loss_density's operators b, sigma_1 ... sigma_N",
                 16 * (space.n_atoms + 1) * space.dim * space.dim)
    params = space.params
    b = cavity_annihilation(space)
    val = 2.0 * params.kappa * np.vdot(state, b.conj().T @ (b @ state)).real
    for i in range(1, space.n_atoms + 1):
        s = atomic_lowering(space, i)
        val += 2.0 * params.gamma * np.vdot(s @ state, s @ state).real
    return float(val)
