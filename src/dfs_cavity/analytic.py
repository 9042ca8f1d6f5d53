"""Closed-form weak-driving model for two atoms in the leaky cavity.

Eliminating the fast amplitudes (they relax at rates of order g and
kappa) leaves the two trapped amplitudes (c_g, c_a) obeying
d/dt c = -M c with

    M = [[k1, i W-], [i W-*, k2]],
    k1 = |W+|^2 kappa / (2 g^2),
    k2 = |W-|^2 (2 g^2 + kappa^2) / (2 g^2 kappa) + gamma,

where W+- = (Omega_1 +- Omega_2) / (2 sqrt(2)).  The eigenvalues of M
are (k1 + k2)/2 +- i S with S = sqrt(|W-|^2 - ((k1 - k2)/2)^2); underdamped
dynamics (S real) rotates the ground state into the antisymmetric
trapped state, and the survival probability of the no-emission
conditioning follows in closed form.  Everything here is an oracle for
the full numerics: stateless, exact arithmetic on the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import Pulse
from .hilbert import SystemParams

ZENO_THRESHOLD = 0.1


class OverdampedError(ValueError):
    """No full rotation exists: |k1 - k2| >= 2|W-| makes S imaginary."""


def omega_pm(omega1: complex, omega2: complex) -> tuple[complex, complex]:
    """Symmetric/antisymmetric drive combinations (Omega1 +- Omega2)/(2 sqrt(2))."""
    scale = 1.0 / (2.0 * np.sqrt(2.0))
    return (omega1 + omega2) * scale, (omega1 - omega2) * scale


def effective_rates(params: SystemParams, omega_plus: complex,
                    omega_minus: complex) -> tuple[float, float]:
    """Slow decay rates (k1, k2) of the trapped amplitudes.

    kappa = 0 is rejected: the elimination requires a leaky cavity.
    """
    if params.kappa <= 0:
        raise ValueError("effective rates are singular at kappa = 0 (leaky cavity required)")
    g2 = params.g ** 2
    k1 = abs(omega_plus) ** 2 * params.kappa / (2.0 * g2)
    k2 = (abs(omega_minus) ** 2 * (2.0 * g2 + params.kappa ** 2)
          / (2.0 * g2 * params.kappa) + params.gamma)
    return k1, k2


@dataclass(frozen=True)
class SlowModel:
    """Rates (k1, k2, W-) of the 2x2 generator M acting on the trapped amplitudes (c_g, c_a)."""

    k1: float
    k2: float
    omega_minus: complex

    def __post_init__(self):
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("effective rates k1, k2 must be >= 0")
        object.__setattr__(self, "omega_minus", complex(self.omega_minus))

    @property
    def s_freq(self) -> complex:
        """Effective rotation frequency S (principal-branch sqrt, may be imaginary)."""
        return np.sqrt(complex(abs(self.omega_minus) ** 2 - ((self.k1 - self.k2) / 2.0) ** 2))


def build_slow_model(params: SystemParams, omega1: complex, omega2: complex) -> SlowModel:
    """Convenience factory from the physical rates and the two drives."""
    wp, wm = omega_pm(omega1, omega2)
    k1, k2 = effective_rates(params, wp, wm)
    return SlowModel(k1, k2, wm)


def _sin_over_s(s: complex, t: float) -> complex:
    """sin(S t)/S, finite at S = 0 (entire in S^2, so overdamped S is fine)."""
    st = s * t
    if abs(st) < 1e-8:
        return t * (1.0 - st * st / 6.0)
    return np.sin(st) / s


def p0_closed_form(model: SlowModel, duration: float) -> float:
    """No-emission probability |c_g|^2 + |c_a|^2 at the end of the pulse.

    Evaluates exp(-(k1+k2) T) [1 - ((k1-k2)/S) sin ST cos ST
    + ((k1-k2)^2 / (2 S^2)) sin^2 ST] in complex arithmetic and checks
    the imaginary residue before returning the real part.
    """
    d = model.k1 - model.k2
    s = model.s_freq
    sinc = _sin_over_s(s, duration)
    val = np.exp(-(model.k1 + model.k2) * duration) * (
        1.0 - d * sinc * np.cos(s * duration) + 0.5 * d * d * sinc * sinc)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"survival probability came out complex: {val!r}")
    return float(val.real)


def entangling_pulse_duration(model: SlowModel) -> float:
    """Pulse length that rotates the ground state fully onto the antisymmetric state.

    T = arccot((k1 - k2)/(2 S)) / S with the arccot branch in (0, pi), so
    T > 0 and the balanced case k1 = k2 reduces to pi/(2 |W-|).  At this T
    the c_g amplitude of the slow model vanishes exactly.  Requires the
    underdamped regime |k1 - k2| < 2 |W-|.
    """
    s2 = abs(model.omega_minus) ** 2 - ((model.k1 - model.k2) / 2.0) ** 2
    if s2 <= 0:
        raise OverdampedError(
            f"|k1 - k2| = {abs(model.k1 - model.k2):g} >= 2|W-| = "
            f"{2 * abs(model.omega_minus):g}: no full rotation exists")
    s = np.sqrt(s2)
    return float(np.arctan2(1.0, (model.k1 - model.k2) / (2.0 * s)) / s)


@dataclass(frozen=True)
class ZenoReport:
    """Diagnostic ratios for the weak-driving (Zeno) regime; never blocks.

    ``drive_ratio`` is max|Omega_i| / min(g, kappa): the drive must act
    slowly compared with the cavity's effective measurement time.
    ``spontaneous_ratio`` is gamma / max|Omega_i|: spontaneous emission
    must stay negligible over one rotation.
    """

    drive_ratio: float
    spontaneous_ratio: float

    @property
    def passed(self) -> bool:
        return (self.drive_ratio <= ZENO_THRESHOLD
                and self.spontaneous_ratio <= ZENO_THRESHOLD)


def zeno_timescale_check(params: SystemParams, pulse: Pulse) -> ZenoReport:
    """Report how deep the pulse sits in the weak-driving regime."""
    peak = max(abs(r) for r in pulse.rabi)
    drive = peak / min(params.g, params.kappa) if params.kappa > 0 else np.inf
    if peak > 0:
        spont = params.gamma / peak
    else:
        spont = 0.0 if params.gamma == 0 else np.inf
    return ZenoReport(float(drive), float(spont))
