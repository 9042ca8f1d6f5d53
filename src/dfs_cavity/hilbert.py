"""Composite Hilbert space of N two-level atoms and one truncated cavity mode.

Conventions used throughout the package:

* hbar = 1; every rate (g, kappa, gamma, Rabi frequencies) is an angular
  frequency, and only rate ratios matter.
* The composite basis is photon-major: ``|n, bits>`` has flat index
  ``n * 2**n_atoms + bits``.  Bit ``n_atoms - i`` of the integer ``bits``
  is 1 iff atom ``i`` (1-based) is excited, so ``format(bits, '0Nb')``
  reads atom 1 ... atom N left to right.
* States are complex vectors of length ``dim``.  There is no cap on N or
  ``dim``: each allocation that grows with the space (the sigma_i entry
  table, a dense dim x dim operator, the trapped basis, ``evolve``'s rows,
  the sweep's grid and rows) checks its own bytes with :func:`check_budget`
  before it is made.
* Operators are scattered onto zeros, never multiplied out.  sigma_i and the
  drive land on the positions :func:`lowering_entries` lists, the coupling
  b J_plus on them shifted by one photon block, b one block above the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Bytes one allocation that grows with the space may take, with what it holds beside it
# (2 GiB); on a 7 GB desk machine it leaves room for the expm and eig workspace and the
# rest of the process
DENSE_BUDGET_BYTES = 2 << 30


class DeskScaleError(ValueError):
    """An allocation would take more than DENSE_BUDGET_BYTES (raised by check_budget)."""


@dataclass(frozen=True)
class SystemParams:
    """Atom count, Fock truncation and the three physical rates.

    ``gamma`` and ``kappa`` are amplitude decay rates: populations decay
    at 2*gamma (atoms) and 2*kappa (cavity), matching the anti-Hermitian
    part of the conditional Hamiltonian.  The jump operators consistent
    with that convention are sqrt(2*gamma)*sigma_i and sqrt(2*kappa)*b.
    """

    n_atoms: int
    g: float = 1.0
    kappa: float = 1.0
    gamma: float = 0.0
    n_max: int = 3

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if not all(map(math.isfinite, (self.g, self.kappa, self.gamma))):
            raise ValueError("rates g, kappa, gamma must be finite")
        if self.g <= 0:
            raise ValueError(f"g must be > 0, got {self.g}")
        if self.kappa < 0 or self.gamma < 0:
            raise ValueError("decay rates kappa, gamma must be >= 0")

    @property
    def dim(self) -> int:
        """Dimension of the composite space, 2**N * (n_max + 1)."""
        return (self.n_max + 1) << self.n_atoms


@dataclass(frozen=True)
class HilbertSpace:
    """Indexable truncated basis; immutable and safe to share between threads."""

    params: SystemParams

    @property
    def n_atoms(self) -> int:
        return self.params.n_atoms

    @property
    def n_max(self) -> int:
        return self.params.n_max

    @property
    def dim(self) -> int:
        return self.params.dim

    @property
    def n_configs(self) -> int:
        """Number of atomic configurations, 2**N."""
        return 1 << self.n_atoms

    def flat_index(self, photon_number: int, atomic_config: int) -> int:
        """Flat index of ``|photon_number, atomic_config>`` (photon-major)."""
        if not 0 <= photon_number <= self.n_max:
            raise ValueError(f"photon number {photon_number} outside [0, {self.n_max}]")
        if not 0 <= atomic_config < self.n_configs:
            raise ValueError(f"atomic config {atomic_config} outside [0, {self.n_configs})")
        return photon_number * self.n_configs + atomic_config

    def atom_bit(self, i: int) -> int:
        """Bit position of atom ``i`` (1-based) inside the config integer."""
        if not 1 <= i <= self.n_atoms:
            raise ValueError(f"atom index {i} outside [1, {self.n_atoms}]")
        return self.n_atoms - i

    def basis_state(self, photon_number: int, atomic_config: int) -> np.ndarray:
        """Unit vector for the basis element ``|n, bits>``."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.flat_index(photon_number, atomic_config)] = 1.0
        return vec

    def ground_state(self) -> np.ndarray:
        """Cavity vacuum with all atoms in the ground state."""
        return self.basis_state(0, 0)


def build_space(params: SystemParams) -> HilbertSpace:
    """Construct the composite space.

    Raises DeskScaleError when the sigma_i entry table, which every
    propagation builds, would exceed the budget: three int64 arrays
    (:func:`lowering_entries`) of N dim / 2 entries each.
    """
    check_budget("the sigma_i entry table", 12 * params.n_atoms * params.dim)
    return HilbertSpace(params)


def check_budget(what: str, n_bytes: int) -> None:
    """Raise DeskScaleError when ``what`` would take more than DENSE_BUDGET_BYTES.

    The one desk-scale rule: every allocation that grows with the space
    calls it with its own bytes before it allocates.
    """
    if n_bytes > DENSE_BUDGET_BYTES:
        raise DeskScaleError(f"{what} would take {n_bytes / (1 << 30):.3g} GiB, over the "
                             f"budget of {DENSE_BUDGET_BYTES >> 30} GiB")


def _dense_zeros(space: HilbertSpace, what: str) -> np.ndarray:
    """A complex dim x dim array of zeros, checked against the budget before it is made."""
    check_budget(what, 16 * space.dim * space.dim)
    return np.zeros((space.dim, space.dim), dtype=complex)


@lru_cache(maxsize=32)
def lowering_entries(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, atoms): the flat position of every unit entry of sigma_1 ... sigma_N.

    sigma_i = |0><1| has a 1 at (rows[k], cols[k]) for each k with
    atoms[k] == i - 1.  The atoms' entries are disjoint, and none lies
    on a transposed position of another.  Cached; the arrays are read-only.
    """
    masks = 1 << (space.n_atoms - 1 - np.arange(space.n_atoms))  # atom_bit(i), i = 1..N
    atoms, ground = np.nonzero((np.arange(space.n_configs) & masks[:, None]) == 0)
    blocks = space.n_configs * np.arange(space.n_max + 1)[:, None]
    rows = (blocks + ground).ravel()
    cols = (blocks + (ground | masks[atoms])).ravel()
    atoms = np.tile(atoms, space.n_max + 1)
    return _read_only(rows), _read_only(cols), _read_only(atoms)


def _read_only(a: np.ndarray) -> np.ndarray:
    """Clear the writeable flag, so a cached array cannot be changed in place; returns a."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def atomic_lowering(space: HilbertSpace, i: int) -> np.ndarray:
    """Lowering operator sigma_i = |0><1| on atom i, identity elsewhere.

    The cached return value is read-only.  Raises DeskScaleError when the
    dense matrix would exceed the budget.
    """
    space.atom_bit(i)  # raises ValueError for i outside [1, N]
    op = _dense_zeros(space, f"sigma_{i}")
    rows, cols, atoms = lowering_entries(space)
    mine = atoms == i - 1
    op[rows[mine], cols[mine]] = 1.0
    return _read_only(op)


@lru_cache(maxsize=32)
def cavity_annihilation(space: HilbertSpace) -> np.ndarray:
    """Bosonic annihilation b with b|n> = sqrt(n)|n-1>, truncated at n_max.

    The truncation only breaks the ladder algebra at the cutoff row:
    b_dag |n_max> = 0.  The cached return value is read-only.  Raises
    DeskScaleError when the dense matrix would exceed the budget.
    """
    op = _dense_zeros(space, "the cavity annihilation b")
    lower = np.arange(space.dim - space.n_configs)  # every index below the top photon block
    op[lower, lower + space.n_configs] = np.sqrt(lower // space.n_configs + 1)
    return _read_only(op)
