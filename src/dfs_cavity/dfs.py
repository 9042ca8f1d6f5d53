"""Decoherence-free (trapped) subspace construction and bookkeeping.

A state survives the no-emission conditioning forever iff the cavity is
in vacuum and the atomic part is annihilated by the collective lowering
operator J_minus = sum_i sigma_i.  Those atomic states are the minimal-
projection collective-spin states |l, -l>; the sector with excitation
number n corresponds to l = N/2 - n.  The subspace dimension is
binomial(N, floor(N/2)), which for large N grows almost as fast as the
full 2**N.

The basis builder spans each excitation sector with products of singlet
pairs: place n disjoint atom pairs in (|10> - |01>)/sqrt(2) and every
remaining atom in the ground state.  Only the pairings read off the
columns of the two-row standard Young tableaux of shape (N - n, n) are
used; there is exactly one per trapped state and they are linearly
independent.  One array pass builds a sector's generators as the columns
of the matrix its Householder QR factors, in a fixed enumeration order,
which makes the output orthonormal and deterministic.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .hilbert import HilbertSpace, _read_only, check_budget

RANK_TOL = 1e-10


def dfs_dimension(n_atoms: int) -> int:
    """Dimension of the trapped subspace: binomial(N, floor(N/2))."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    return math.comb(n_atoms, n_atoms // 2)


def dicke_degeneracy(n_atoms: int, l: float) -> int:
    """Multiplicity of the collective-spin states |l, -l> for N atoms.

    Valid l run from N/2 down to 0 (N even) or 1/2 (N odd) in integer
    steps; the excitation number of the sector is n = N/2 - l.  The count
    is binomial(N, n) - binomial(N, n - 1), and summing it over all valid
    l recovers :func:`dfs_dimension`.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    n_float = n_atoms / 2 - l
    n = round(n_float)
    if abs(n_float - n) > 1e-12 or n < 0 or l < 0 or n > n_atoms // 2:
        raise ValueError(f"l = {l} is not a valid sector label for {n_atoms} atoms")
    if n == 0:
        return 1
    return math.comb(n_atoms, n) - math.comb(n_atoms, n - 1)


def generating_states(n_atoms: int, n_pairs: int) -> np.ndarray:
    """Standard-tableau singlet generators of the excitation-n sector (atomic part).

    Column j is a product of n_pairs singlets (|10> - |01>)/sqrt(2) on the
    pairs (a_k, b_k), every other atom in the ground state.  The pairs are
    the columns of a two-row standard Young tableau of shape (N - n, n):
    the lower row b_1 < ... < b_n runs over combinations in lexicographic
    order, the upper row a_1 < a_2 < ... holds the remaining atoms, and
    the filling is standard iff a_k < b_k for every k.  Returns the
    ``(2**N, dicke_degeneracy(N, N/2 - n_pairs))`` complex array, in
    Fortran order, of linearly independent vectors, each annihilated by
    J_minus, so they span the sector exactly.
    """
    if not 0 <= n_pairs <= n_atoms // 2:
        raise ValueError(f"n_pairs = {n_pairs} outside [0, {n_atoms // 2}]")
    atoms = np.arange(1, n_atoms + 1)
    lower = np.array(list(itertools.combinations(atoms.tolist(), n_pairs)), dtype=int)
    # nonzero walks each row left to right, so every upper row comes out sorted
    upper = atoms[np.nonzero((lower[:, :, None] != atoms).all(axis=1))[1]].reshape(len(lower), -1)
    standard = (upper[:, :n_pairs] < lower).all(axis=1)
    weight_a = 1 << (n_atoms - upper[standard, :n_pairs])
    weight_b = 1 << (n_atoms - lower[standard])
    # choices[c, k] = 1 excites b_k instead of a_k and flips the sign; the rows run in
    # itertools.product order.  The pairs are disjoint, so no two terms share a row
    choices = (np.arange(1 << n_pairs)[:, None] >> np.arange(n_pairs - 1, -1, -1)) & 1
    signs = 2.0 ** (-n_pairs / 2.0) * (1 - 2 * (choices.sum(axis=1) % 2))
    gens = np.zeros((1 << n_atoms, len(weight_a)), dtype=complex, order="F")
    gens[weight_a.sum(axis=1) + choices @ (weight_b - weight_a).T,
         np.arange(len(weight_a))] = signs[:, None]
    return gens


@dataclass(frozen=True, eq=False)
class DfsBasis:
    """Orthonormal trapped-state basis, all vectors in the cavity-vacuum sector.

    ``vectors[k]`` is the k-th basis vector (length ``space.dim``);
    ``excitations[k]`` is its atomic excitation number n and
    ``dicke_l[k] = N/2 - n`` the collective-spin label.  Vectors are
    grouped by increasing n in deterministic construction order.
    """

    space: HilbertSpace
    vectors: np.ndarray
    excitations: tuple[int, ...]
    dicke_l: tuple[float, ...]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def sector_counts(self) -> dict[int, int]:
        """Number of basis vectors per excitation number."""
        counts: dict[int, int] = {}
        for n in self.excitations:
            counts[n] = counts.get(n, 0) + 1
        return counts

    def populations(self, state: np.ndarray) -> list[float]:
        """Population of each basis vector in ``state``, in basis order.

        Entry k is ``float(abs(np.vdot(vectors[k], state)) ** 2)``, one
        np.vdot per full-length row; the CLI reads the trapped subspace
        through this alone, so its outputs keep the bytes of that
        expression.  Their sum is the squared norm of the trapped component
        of ``state``.
        """
        return [float(abs(np.vdot(v, state)) ** 2) for v in self.vectors]


@lru_cache(maxsize=32)
def dfs_basis(space: HilbertSpace) -> DfsBasis:
    """Build the orthonormal trapped-state basis for the given space.

    Each sector's generators, as columns, are factored G = QR by one
    Householder QR, and Q's columns, signed so that R has a positive real
    diagonal, are the sector's vectors: Gram-Schmidt's vectors in exact
    arithmetic.  Sectors have disjoint support, so they are already
    orthogonal.  The generators are independent, so a |R_kk| below RANK_TOL
    raises RuntimeError.  The result is cached per space and ``vectors``
    is read-only.  Raises DeskScaleError, before it allocates, when the
    basis and the QR workspace of its largest sector would exceed the budget.
    """
    n_atoms = space.n_atoms
    count = dfs_dimension(n_atoms)
    largest = max(dicke_degeneracy(n_atoms, n_atoms / 2 - n) for n in range(n_atoms // 2 + 1))
    # beside the basis, a sector's build holds its generators, their copies inside the
    # QR, Q and its signed copy (at most 4.1 generator arrays, measured at N = 8-12), and
    # interpreter objects (at most 13 KiB, measured at N = 1-12)
    check_budget(f"the trapped basis of {count} vectors of length {space.dim}",
                 16 * (count * space.dim + 5 * largest * space.n_configs) + (64 << 10))
    # the atomic vectors fill the photon-0 block of the composite space
    vectors = np.zeros((count, space.dim), dtype=complex)
    excitations: list[int] = []
    for n in range(n_atoms // 2 + 1):
        q, r = np.linalg.qr(generating_states(n_atoms, n))
        diag = r.diagonal()
        if not np.abs(diag).min() >= RANK_TOL:
            raise RuntimeError(f"dependent generator in excitation sector {n}")
        # + 0.0 turns an exact -0.0 amplitude into 0.0
        vectors[len(excitations):len(excitations) + len(diag), : space.n_configs] = (
            q.T * (diag / np.abs(diag))[:, None] + 0.0)
        excitations += [n] * len(diag)
    if len(excitations) != count:
        raise RuntimeError(
            f"constructed {len(excitations)} trapped states, expected {count}")
    dicke_l = tuple(n_atoms / 2 - n for n in excitations)
    return DfsBasis(space, _read_only(vectors), tuple(excitations), dicke_l)


def export_basis(basis: DfsBasis, csv_path: str | Path, sidecar_path: str | Path) -> None:
    """Write the basis as CSV amplitudes plus a JSON sidecar with sector labels.

    CSV columns: vector_index, flat_basis_index, re_amplitude, im_amplitude
    (every amplitude, in flat-index order, 17 significant digits).
    """
    csv_path, sidecar_path = Path(csv_path), Path(sidecar_path)
    with csv_path.open("w", newline="") as fh:
        # the bytes csv.writer writes: every field is a number, so none is quoted
        fh.write("vector_index,flat_basis_index,re_amplitude,im_amplitude\r\n")
        # one vector at a time: the whole basis as Python objects is about 2.5x its bytes
        fh.writelines("%d,%d,%.17g,%.17g\r\n" % (k, flat, amp.real, amp.imag)
                      for k, vec in enumerate(basis.vectors)
                      for flat, amp in enumerate(vec.tolist()))
    sidecar = {
        "n_atoms": basis.space.n_atoms,
        "n_max": basis.space.n_max,
        "space_dimension": basis.space.dim,
        "dfs_dimension": len(basis),
        "sectors": [
            {"vector_index": k, "excitation": basis.excitations[k], "dicke_l": basis.dicke_l[k]}
            for k in range(len(basis))
        ],
        "sector_counts": {str(n): c for n, c in sorted(basis.sector_counts().items())},
    }
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
