"""Moments, uncertainties, Ehrenfest residuals, and the wall's effective force.

The moments are exact sums over the term pairs of the pure components
(:func:`~qctl.ensembles.diagonal_pairs`), at an array of times in one pair
table or at one time as its 0-d case.  Momentum moments are taken in the
position representation, where a term's gradient is ``(2 A x + B)`` times
the term: the mean from ``hb sum_c Im{conj(phi_c) phi_c'}`` and the second
moment from ``hb^2 sum_c |phi_c'|^2``, which is exact on the half-line
because the wall node kills the boundary term of the integration by parts.
"""

from __future__ import annotations

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
    """Ensemble observables, each of the shape of the times asked for: numpy
    floats at a scalar time."""

    mean_x: np.ndarray
    mean_p: np.ndarray
    sd_x: np.ndarray
    sd_p: np.ndarray
    uncertainty_product: np.ndarray
    f_nc: np.ndarray


def _moments(pairs, hb: float):
    """(mean_x, sd_x, mean_p, sd_p) at the times of :func:`~qctl.ensembles.diagonal_pairs`."""
    # A running sum adds the pairs left to right, as a sum over a leading pair axis
    # did; numpy's sum over the last axis would add them pairwise.
    _, mean_x, second_x = pairs.integrals.cumsum(axis=-1)[..., -1].real
    (A_i, B_i, _), (A_j, B_j, _) = pairs.left, pairs.right
    I0, I1, I2 = pairs.integrals
    mean_p = hb * np.sum(2.0 * A_i * I1 + B_i * I0, axis=-1).imag
    second_p = hb**2 * np.sum(
        4.0 * A_i * A_j * I2 + 2.0 * (A_i * B_j + B_i * A_j) * I1 + B_i * B_j * I0, axis=-1
    ).real
    sd_x = np.sqrt(np.maximum(second_x - mean_x * mean_x, 0.0))
    return mean_x, sd_x, mean_p, np.sqrt(np.maximum(second_p - mean_p * mean_p, 0.0))


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
    pairs = diagonal_pairs(spec, regime, (t - dt_fd, t, t + dt_fd))
    (x_minus, _, x_plus), _, (p_minus, mean_p, p_plus), _ = _moments(pairs, regime.hbar_tilde)
    r1 = (x_plus - x_minus) / (2.0 * dt_fd) - mean_p / spec.mass
    r2 = (p_plus - p_minus) / (2.0 * dt_fd) - float(effective_force(spec, regime, t))
    return r1, r2


def heisenberg_check(record: ObservableRecord, regime: Regime):
    """Margin of the rescaled uncertainty relation; it holds where margin >= -1e-9."""
    margin = record.uncertainty_product - 0.5 * regime.hbar_tilde
    return margin >= -1e-9, margin


def observable_record(spec: EnsembleSpec, regime: Regime, t) -> ObservableRecord:
    """The observables at the times ``t``, an array of any shape or a scalar.

    Raises :class:`NumericalGuardError` unless every value is finite.
    """
    mean_x, sd_x, mean_p, sd_p = _moments(diagonal_pairs(spec, regime, t), regime.hbar_tilde)
    values = (mean_x, mean_p, sd_x, sd_p, sd_x * sd_p, effective_force(spec, regime, t))
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        times = np.asarray(t)[~finite]
        raise NumericalGuardError(f"observables are not finite at t = {times.flat[0]:g} "
                                  f"({times.size} of {finite.size} times)")
    # [()] makes a scalar time's 0-d values numpy floats and leaves arrays whole.
    return ObservableRecord(*(value[()] for value in values))
