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

The undriven part i g (B - B^T) - i diag(loss), with B = b J_plus, is
built once per space from cavity and atomic factors (``hilbert.embed``)
and cached; each call copies it and adds the drive (1/2) Omega_i onto
the entries of sigma_i that ``hilbert.lowering_entries`` lists, and its
conjugate onto their transposes.  These entries are disjoint and hold
+0.0 before the drive lands, so every zero comes out +0.0 and the bytes
equal those of the term-by-term sum of full-space products that starts
from zeros.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (HilbertSpace, _read_only, atom_factor, atomic_lowering,
                      cavity_annihilation, cavity_factor, embed, lowering_entries)


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

    @property
    def is_off(self) -> bool:
        return all(r == 0 for r in self.rabi)


def _check_pulse(space: HilbertSpace, pulse: Pulse) -> None:
    if pulse.n_atoms != space.n_atoms:
        raise ValueError(
            f"pulse drives {pulse.n_atoms} atoms but the space holds {space.n_atoms}")


def _add_drive(h: np.ndarray, space: HilbertSpace, pulse: Pulse) -> None:
    """h += (1/2) sum_i Omega_i sigma_i + h.c., in place on the sigma_i entries alone."""
    rows, cols, atoms = lowering_entries(space)
    half = 0.5 * np.array(pulse.rabi)
    h[rows, cols] += half[atoms]  # disjoint entries: no index repeats
    h[cols, rows] += np.conj(half)[atoms]


def laser_hamiltonian(space: HilbertSpace, pulse: Pulse) -> np.ndarray:
    """Hermitian drive (1/2) sum_i Omega_i sigma_i + h.c."""
    _check_pulse(space, pulse)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    _add_drive(h, space, pulse)
    return h


@lru_cache(maxsize=1)  # one space at a time: at dim 4096 the generator takes 256 MB
def _undriven_generator(space: HilbertSpace) -> np.ndarray:
    """i g (B - B^T) - i diag(loss) with B = a (x) J_plus and loss = gamma n_exc + kappa n_phot.

    Cached; the array is read-only and holds no -0.0.
    """
    params = space.params
    a = cavity_factor(space)
    lowerings = [atom_factor(space, i) for i in range(1, space.n_atoms + 1)]
    loss = np.zeros(space.dim)
    if params.gamma:
        ones = np.ones(space.n_max + 1)
        for s in lowerings:  # one atom at a time, as the sum of gamma sigma^dag sigma rounds
            loss += params.gamma * embed(space, ones, np.diag(s.T @ s))
    photons = embed(space, np.diag(a.T @ a), np.ones(space.n_configs))  # sqrt(n)^2, not n
    loss += params.kappa * photons
    b = embed(space, a, sum(lowerings).T)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    imag = h.imag  # a view: writes land in h
    np.subtract(b, b.T, out=imag)
    imag *= params.g
    imag[np.diag_indices(space.dim)] -= loss
    return _read_only(h)


def conditional_hamiltonian(space: HilbertSpace, pulse: Pulse | None = None) -> np.ndarray:
    """Non-Hermitian generator of the no-emission evolution at the space's rates.

    ``pulse=None`` means lasers off; a pulse that drives another atom
    count than the space holds raises ValueError, also when it is off.
    Returns a fresh, writeable array.
    """
    if pulse is not None:
        _check_pulse(space, pulse)
    h = _undriven_generator(space).copy()
    if pulse is not None and not pulse.is_off:
        _add_drive(h, space, pulse)
    return h


def photon_loss_density(space: HilbertSpace, state: np.ndarray) -> float:
    """Instantaneous emission probability density of a normalized state.

    Equals 2*kappa*<b^dag b> + 2*gamma*<sum_i sigma_i^dag sigma_i>, the
    decay rate -dP0/dt at t=0; zero exactly on trapped states.
    """
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized, got norm {nrm!r}")
    params = space.params
    b = cavity_annihilation(space)
    val = 2.0 * params.kappa * np.vdot(state, b.conj().T @ (b @ state)).real
    for i in range(1, space.n_atoms + 1):
        s = atomic_lowering(space, i)
        val += 2.0 * params.gamma * np.vdot(s @ state, s @ state).real
    return float(val)
