"""Moments, uncertainties, Ehrenfest residuals, and the wall's effective force.

The moments are exact sums over the term pairs of the pure components
(:func:`~qctl.ensembles.diagonal_pairs`).  Momentum moments are taken in the
position representation, where a term's gradient is ``(2 A x + B)`` times
the term: the mean from ``hb sum_c Im{conj(phi_c) phi_c'}`` and the second
moment from ``hb^2 sum_c |phi_c'|^2``, which is exact on the half-line
because the wall node kills the boundary term of the integration by parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleSpec, component_fields, diagonal_pairs
from .errors import DomainError, NumericalGuardError
from .regime import Regime

__all__ = [
    "ObservableRecord",
    "effective_force",
    "ehrenfest_residual",
    "heisenberg_check",
    "observable_record",
]


@dataclass(frozen=True)
class ObservableRecord:
    """Snapshot of ensemble observables at one time."""

    t: float
    mean_x: float
    mean_p: float
    sd_x: float
    sd_p: float
    uncertainty_product: float
    f_nc: float


def _moments(pairs, hb: float):
    """(mean_x, sd_x, mean_p, sd_p) from one time's :func:`~qctl.ensembles.diagonal_pairs`."""
    _, mean_x, second_x = pairs.integrals.sum(axis=1).real
    (A_i, B_i, _), (A_j, B_j, _) = pairs.left, pairs.right
    I0, I1, I2 = pairs.integrals
    # A numpy scalar, so that a square past the float range is inf, not an OverflowError.
    mean_p = hb * np.sum(2.0 * A_i * I1 + B_i * I0).imag
    second_p = hb**2 * float(
        np.sum(4.0 * A_i * A_j * I2 + 2.0 * (A_i * B_j + B_i * A_j) * I1 + B_i * B_j * I0).real
    )
    sd_x = float(np.sqrt(max(second_x - mean_x**2, 0.0)))
    return float(mean_x), sd_x, float(mean_p), float(np.sqrt(max(second_p - mean_p**2, 0.0)))


def effective_force(spec: EnsembleSpec, regime: Regime, t):
    """Non-classical effective force from the boundary gradient at the wall.

    It is ``-(hb^2 / 2m) sum_c |d phi_c/dx|^2`` at x = 0 over the normalized
    pure components: for the mixture
    ``-(1/2) (hb^2 / 2m) (|d psi_a/dx|^2 + |d psi_b/dx|^2) / D``, for the pure
    state the gradient of the full superposition.  Both are exactly d<p>/dt
    for the corresponding normalized state.
    """
    _, dphi = component_fields(spec, regime, 0.0, t)
    scale = regime.hbar_tilde**2 / (2.0 * spec.mass)
    return -scale * (np.abs(dphi) ** 2).sum(axis=0)


def ehrenfest_residual(spec: EnsembleSpec, regime: Regime, t, dt_fd: float = 1e-3):
    """Residuals of the two Ehrenfest identities at time t.

    r1 = d<x>/dt - <p>/m and r2 = d<p>/dt - f_nc, with time derivatives by
    central differences of step ``dt_fd`` (so tolerances should budget for
    O(dt_fd^2) truncation).
    """
    if not t - dt_fd >= 0.0:
        raise DomainError(f"need t >= dt_fd for central differences, got t={t}")
    hb = regime.hbar_tilde
    x_plus, _, p_plus, _ = _moments(diagonal_pairs(spec, regime, t + dt_fd), hb)
    x_minus, _, p_minus, _ = _moments(diagonal_pairs(spec, regime, t - dt_fd), hb)
    mean_p = _moments(diagonal_pairs(spec, regime, t), hb)[2]
    r1 = (x_plus - x_minus) / (2.0 * dt_fd) - mean_p / spec.mass
    r2 = (p_plus - p_minus) / (2.0 * dt_fd) - float(effective_force(spec, regime, t))
    return r1, r2


def heisenberg_check(record: ObservableRecord, regime: Regime):
    """Margin of the rescaled uncertainty relation; holds iff margin >= -1e-9."""
    margin = record.uncertainty_product - 0.5 * regime.hbar_tilde
    return margin >= -1e-9, margin


def observable_record(spec: EnsembleSpec, regime: Regime, t) -> ObservableRecord:
    """Assemble the full observable snapshot at time t.

    Raises :class:`NumericalGuardError` unless every value is finite.
    """
    mean_x, sd_x, mean_p, sd_p = _moments(diagonal_pairs(spec, regime, t), regime.hbar_tilde)
    record = ObservableRecord(
        t=float(t),
        mean_x=mean_x,
        mean_p=mean_p,
        sd_x=sd_x,
        sd_p=sd_p,
        uncertainty_product=sd_x * sd_p,
        f_nc=float(effective_force(spec, regime, t)),
    )
    if not all(map(math.isfinite, vars(record).values())):
        raise NumericalGuardError(f"observables are not finite: {record}")
    return record
