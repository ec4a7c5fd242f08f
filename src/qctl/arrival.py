"""Arrival-time statistics from the modulus of the probability current.

The detector at X < 0 is purely kinematic: the arrival distribution is
``|j(X, t)|`` normalized over the time window, and the mean and spread are its
first two moments.  There is no absorption or back-action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleSpec, point_blocks
from .errors import DomainError, NumericalGuardError
from .hydrodynamics import current
from .quadrature import quad_integrate
from .regime import Regime

__all__ = ["ArrivalStatistics", "arrival_distribution"]


@dataclass(frozen=True)
class ArrivalStatistics:
    """Normalized arrival-time distribution at one detector position.

    ``tail_fraction`` is |j| at the end of the window relative to its peak: a
    diagnostic for how much of the slowly decaying late-time current the
    window truncates.
    """

    detector_x: float
    t_grid: np.ndarray
    pdf: np.ndarray
    mean_t: float
    sd_t: float
    tail_fraction: float


def arrival_distribution(
    spec: EnsembleSpec, regime: Regime, detector_x: float, t_grid
) -> ArrivalStatistics:
    """Arrival-time pdf |j(X, t)| / integral |j|, with mean and spread.

    |j| is evaluated in blocks of :data:`~qctl.ensembles.FIELD_BLOCK_POINTS`
    times, so only one block's fields are held; the integrals and the guard
    see every time.
    """
    if not detector_x < 0.0:
        raise DomainError(f"detector must sit at x < 0, got {detector_x}")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 3:
        raise DomainError("t_grid must be a 1-D grid with at least 3 points")
    if t[0] < 0.0:
        raise DomainError("t_grid must start at t >= 0")
    flux_mod = np.empty_like(t)
    for block in point_blocks(t.size):
        flux_mod[block] = np.abs(current(spec, regime, detector_x, t[block]))
    norm = float(quad_integrate(t, flux_mod))
    if not norm >= 1e-12:  # NaN trips it too
        raise NumericalGuardError(
            f"current never reaches detector at x={detector_x} (integral {norm:.3e})"
        )
    pdf = flux_mod / norm
    mean_t = float(quad_integrate(t, t * pdf))
    var_t = float(quad_integrate(t, (t - mean_t) ** 2 * pdf))
    peak = float(np.max(flux_mod))
    return ArrivalStatistics(
        detector_x=float(detector_x),
        t_grid=t,
        pdf=pdf,
        mean_t=mean_t,
        sd_t=float(np.sqrt(max(var_t, 0.0))),
        tail_fraction=float(flux_mod[-1] / peak) if peak > 0.0 else 0.0,
    )
