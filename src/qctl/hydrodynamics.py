"""Probability current, velocity field, and trajectories from the guidance law.

The current is ``j(x, t) = (hb / m) Im{ d/dx rho(x, y, t) |_{y=x} }`` with the
derivative acting on the first index, i.e. ``(hb / m) sum_c Im(conj(phi_c)
phi_c')`` over the ensemble's normalized pure components, which one call of
:func:`~qctl.ensembles.component_fields` returns together with the density.
The velocity is ``j / rho`` and trajectories integrate ``dx/dt = v(x, t)``
with classical RK4 on a fixed macro-step grid.

The velocity is undefined at density nodes, and near interference nodes it
spikes hard enough that a plain fixed step jumps across and breaks the
non-crossing property.  A macro step whose four stage velocities disagree by
more than ``refine_tol`` in displacement is therefore redone with 2, 4, 8, ...
equal sub-steps (same RK4 formula, per-seed decision) until resolved; a seed
that cannot be resolved at the deepest level, or whose stage density falls
below ``DENSITY_FLOOR`` there, stalls instead of extrapolating through the
node.  Samples are always reported on the macro grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleSpec, component_fields
from .errors import DomainError, LowDensityError
from .regime import Regime

__all__ = [
    "DENSITY_FLOOR",
    "Trajectory",
    "current",
    "velocity",
    "integrate_trajectory",
    "trajectory_fan",
    "step_count",
]

DENSITY_FLOOR = 1e-12

STATUS_COMPLETED = "completed"
STATUS_STALLED = "stalled-low-density"

# Stage-velocity disagreement (as displacement, in units of sigma0) above
# which a macro step is redone with sub-steps; smooth regions sit orders of
# magnitude below this, node regions orders of magnitude above.
REFINE_TOL = 2e-4
MAX_REFINE_LEVEL = 16


@dataclass(frozen=True)
class Trajectory:
    """One integrated trajectory: strictly increasing times, matching positions."""

    initial_position: float
    times: np.ndarray
    positions: np.ndarray
    status: str

    @property
    def samples(self):
        return list(zip(self.times, self.positions))


def _flux_and_density(spec: EnsembleSpec, regime: Regime, x, t):
    """Current and diagonal density sharing one component evaluation."""
    phi, dphi = component_fields(spec, regime, x, t)
    rho = (np.abs(phi) ** 2).sum(axis=0)
    flux = (regime.hbar_tilde / spec.mass) * np.imag(np.conj(phi) * dphi).sum(axis=0)
    return flux, rho


def current(spec: EnsembleSpec, regime: Regime, x, t):
    """Scaled probability current at (x, t)."""
    return _flux_and_density(spec, regime, x, t)[0]


def _velocity_and_density(spec: EnsembleSpec, regime: Regime, x, t):
    flux, rho = _flux_and_density(spec, regime, x, t)
    return flux / np.maximum(rho, 1e-300), rho


def velocity(
    spec: EnsembleSpec, regime: Regime, x, t, density_floor: float = DENSITY_FLOOR
):
    """Guidance velocity j / rho; raises LowDensityError below the floor."""
    v, rho = _velocity_and_density(spec, regime, x, t)
    if np.any(rho < density_floor):
        raise LowDensityError(
            f"density below floor {density_floor:.0e} at t={t}; velocity undefined"
        )
    return v


def _macro_step(
    spec: EnsembleSpec,
    regime: Regime,
    x: np.ndarray,
    v: np.ndarray,
    rho: np.ndarray,
    t: float,
    h_macro: float,
    t_next: float,
    density_floor: float,
    refine_tol: float,
    max_level: int,
):
    """Advance all seeds in ``x`` by one macro step of ``h_macro`` from ``t``.

    ``v`` and ``rho`` are the velocity and density at (x, t): the first stage
    of every refinement level's first sub-step.  Every refinement decision
    uses only a seed's own stage values, so the result is independent of
    which other seeds travel in the cohort.  Returns (x_new, v_new, rho_new,
    stalled_mask), with v_new and rho_new at (x_new, t_next) for the seeds
    that did not stall.  ``t_next`` is the record time, equal to
    ``t + h_macro`` up to rounding; both are passed so that the step size
    and the time of the next step's first stage are exact.
    """
    n = x.size
    x_out = np.empty(n)
    v_out = np.empty(n)
    rho_out = np.empty(n)
    resolved = np.zeros(n, dtype=bool)
    stalled = np.zeros(n, dtype=bool)
    for level in range(max_level + 1):
        idx = np.flatnonzero(~resolved)
        if idx.size == 0:
            break
        n_sub = 2**level
        h = h_macro / n_sub
        xs = x[idx].copy()
        flagged = np.zeros(idx.size, dtype=bool)
        dead = np.zeros(idx.size, dtype=bool)
        for j in range(n_sub):
            t_j = t + j * h
            if j == 0:
                v1, r1 = v[idx], rho[idx]
            else:
                v1, r1 = _velocity_and_density(spec, regime, xs, t_j)
            v2, r2 = _velocity_and_density(spec, regime, xs + 0.5 * h * v1, t_j + 0.5 * h)
            v3, r3 = _velocity_and_density(spec, regime, xs + 0.5 * h * v2, t_j + 0.5 * h)
            v4, r4 = _velocity_and_density(spec, regime, xs + h * v3, t_j + h)
            dead |= np.minimum(np.minimum(r1, r2), np.minimum(r3, r4)) < density_floor
            spread = np.maximum(np.maximum(v1, v2), np.maximum(v3, v4)) - np.minimum(
                np.minimum(v1, v2), np.minimum(v3, v4)
            )
            flagged |= spread * h > refine_tol
            xs = xs + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        v_final, rho_final = _velocity_and_density(spec, regime, xs, t_next)
        dead |= rho_final < density_floor
        accept = ~(flagged | dead)
        x_out[idx[accept]] = xs[accept]
        v_out[idx[accept]] = v_final[accept]
        rho_out[idx[accept]] = rho_final[accept]
        resolved[idx[accept]] = True
        if level == max_level:
            stalled[idx[~accept]] = True
            resolved[idx[~accept]] = True
    if spec.wall:
        # The state vanishes for x >= 0, so v_out and rho_out (zero there)
        # still hold at a clamped position.
        x_out[~stalled] = np.minimum(x_out[~stalled], 0.0)
    return x_out, v_out, rho_out, stalled


def step_count(t_end: float, dt: float) -> int:
    """Number of macro steps of size ``dt`` that end exactly at ``t_end``.

    Raises :class:`DomainError` unless ``t_end`` is a whole multiple of ``dt``
    (to a relative 1e-9): rounding the count would silently move the final
    time.
    """
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise DomainError(f"t_end={t_end} must be a whole multiple of dt={dt}")
    return n_steps


def _integrate_fan(
    spec: EnsembleSpec,
    regime: Regime,
    seeds: np.ndarray,
    t_end: float,
    dt: float,
    density_floor: float,
    refine_tol: float | None = None,
    max_refine_level: int = MAX_REFINE_LEVEL,
) -> list[Trajectory]:
    """Lockstep integration over all seeds with per-seed stall bookkeeping.

    Per-seed arithmetic is elementwise, so lockstep integration produces the
    same numbers as integrating each seed on its own.
    """
    n_steps = step_count(t_end, dt)
    if refine_tol is None:
        refine_tol = REFINE_TOL * min(p.sigma0 for p in spec.packets)
    times = np.arange(n_steps + 1) * dt
    n_seeds = seeds.size
    positions = np.full((n_seeds, n_steps + 1), np.nan)
    positions[:, 0] = seeds
    stall_step = np.full(n_seeds, -1, dtype=int)

    # Velocity and density of every active seed at its latest position.
    v, rho = _velocity_and_density(spec, regime, seeds, 0.0)
    active = np.asarray(rho >= density_floor)
    stall_step[~active] = 0

    for k in range(n_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        x_new, v_new, rho_new, stalled = _macro_step(
            spec,
            regime,
            positions[idx, k],
            v[idx],
            rho[idx],
            times[k],
            dt,
            times[k + 1],
            density_floor,
            refine_tol,
            max_refine_level,
        )
        stall_step[idx[stalled]] = k
        active[idx[stalled]] = False
        good = idx[~stalled]
        positions[good, k + 1] = x_new[~stalled]
        v[good] = v_new[~stalled]
        rho[good] = rho_new[~stalled]

    stops = np.where(stall_step >= 0, stall_step + 1, n_steps + 1)
    return [
        Trajectory(
            float(seeds[i]),
            times[: stops[i]],
            positions[i, : stops[i]],
            STATUS_STALLED if stall_step[i] >= 0 else STATUS_COMPLETED,
        )
        for i in range(n_seeds)
    ]


def integrate_trajectory(
    spec: EnsembleSpec,
    regime: Regime,
    initial_position: float,
    t_end: float,
    dt: float = 1e-3,
    density_floor: float = DENSITY_FLOOR,
    refine_tol: float | None = None,
    max_refine_level: int = MAX_REFINE_LEVEL,
) -> Trajectory:
    """Integrate one trajectory from ``initial_position`` up to ``t_end``."""
    return trajectory_fan(
        spec, regime, [initial_position], t_end, dt, density_floor, refine_tol, max_refine_level
    )[0]


def trajectory_fan(
    spec: EnsembleSpec,
    regime: Regime,
    initial_positions,
    t_end: float,
    dt: float = 1e-3,
    density_floor: float = DENSITY_FLOOR,
    refine_tol: float | None = None,
    max_refine_level: int = MAX_REFINE_LEVEL,
) -> list[Trajectory]:
    """Integrate one trajectory per seed; seeds must be strictly increasing."""
    seeds = np.asarray(initial_positions, dtype=float)
    if seeds.ndim != 1 or seeds.size == 0:
        raise DomainError("initial positions must be a non-empty 1-D sequence")
    if np.any(np.diff(seeds) <= 0.0):
        raise DomainError("initial positions must be strictly increasing")
    if not np.all(seeds < 0.0):
        raise DomainError("initial positions must be negative")
    if not dt > 0.0 or not t_end > 0.0:
        raise DomainError("dt and t_end must be positive")
    return _integrate_fan(
        spec, regime, seeds, t_end, dt, density_floor, refine_tol, max_refine_level
    )
