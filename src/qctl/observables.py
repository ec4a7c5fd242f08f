"""Moments, uncertainties, Ehrenfest residuals, and the wall's effective force.

The moments are exact sums over the term pairs of the pure components
(:func:`~qctl.ensembles.diagonal_pairs`), at an array of times in one pair
table or at one time as its 0-d case, each pair in its centred coordinate
y = x - c.  The variances are taken about the means, never as a second
moment minus a squared mean (Chan, Golub and LeVeque, Am. Stat. 37, 1983).
Momentum moments are taken in the position representation, where a term's
gradient is ``(2 a y + s)`` times the term: the mean from
``hb sum_c Im{conj(phi_c) phi_c'}`` and the variance from
``hb^2 sum_c |phi_c' - i (mean_p / hb) phi_c|^2``, which is exact on the
half-line because the wall node kills the boundary term of the integration
by parts.
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
    J0, J1, J2 = pairs.integrals
    (a_i, s_i), (a_j, s_j) = pairs.left, pairs.right
    mean_x = np.sum(pairs.centre * J0 + J1, axis=-1).real
    # x - mean_x = y + shift on each pair.
    shift = pairs.centre - mean_x[..., None]
    var_x = np.sum((shift * J0 + 2.0 * J1) * shift + J2, axis=-1).real
    mean_p = hb * np.sum(np.multiply(2.0 * a_i, J1) + np.multiply(s_i, J0), axis=-1).imag
    # Each side's factor (2 a y + s) less i mean_p / hb, the right one conjugated.
    s_i, s_j = s_i - 1j * (mean_p / hb)[..., None], s_j + 1j * (mean_p / hb)[..., None]
    var_p = hb**2 * np.sum(np.multiply(4.0 * a_i * a_j, J2) + np.multiply(2.0 * (a_i * s_j + s_i * a_j), J1)
                           + np.multiply(s_i * s_j, J0), axis=-1).real
    return mean_x, np.sqrt(np.maximum(var_x, 0.0)), mean_p, np.sqrt(np.maximum(var_p, 0.0))


def effective_force(spec: EnsembleSpec, regime: Regime, t):
    """Non-classical effective force from the boundary gradient at the wall.

    It is ``-(hb^2 / 2m) sum_c |d phi_c/dx|^2`` at x = 0 over the normalized
    pure components: for the mixture
    ``-(1/2) (hb^2 / 2m) (|d psi_a/dx|^2 + |d psi_b/dx|^2) / D``, for the pure
    state the gradient of the full superposition.  Both are exactly d<p>/dt
    for the corresponding normalized state.
    """
    [(_, dphi)] = component_fields([spec], regime, 0.0, t)
    scale = regime.hbar_tilde**2 / (2.0 * spec.mass)
    return -scale * (np.abs(dphi) ** 2).sum(axis=0)


def ehrenfest_residual(spec: EnsembleSpec, regime: Regime, t, dt_fd: float = 1e-3):
    """Residuals of the two Ehrenfest identities at time t.

    r1 = d<x>/dt - <p>/m and r2 = d<p>/dt - f_nc, with time derivatives by
    central differences of step ``dt_fd`` (so tolerances should budget for
    O(dt_fd^2) truncation).
    """
    if not (0.0 < dt_fd < np.inf and t - dt_fd >= 0.0):
        raise DomainError(f"central differences need a finite 0 < dt_fd <= t, got t={t}, dt_fd={dt_fd}")
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
