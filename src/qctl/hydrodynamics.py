"""Probability current, velocity field, and trajectories from the guidance law.

The current is ``j(x, t) = (hb / m) Im{ d/dx rho(x, y, t) |_{y=x} }`` with the
derivative acting on the first index, i.e. ``(hb / m) sum_c Im(conj(phi_c)
phi_c')`` over the ensemble's normalized pure components, which one call of
:func:`~qctl.ensembles.component_fields` returns together with the density.
The velocity is ``j / rho`` and trajectories integrate ``dx/dt = v(x, t)``
with the Dormand-Prince 5(4) embedded Runge-Kutta pair (Hairer, Norsett and
Wanner, *Solving Ordinary Differential Equations I*, II.4-6).

Every seed has its own time and step size.  The steps are controlled to a
local error of ``ATOL`` times the smallest packet width, and the samples on
the record grid ``k * dt`` (every ``record_every``-th one) come from the
pair's dense output, so ``dt`` sets only the sample spacing, not the accuracy
or the cost.  All fans (ensemble, regime, seeds) advance in lockstep, one
evaluator call per stage for every running seed of every fan, and every
per-seed combination is written elementwise, so a seed's numbers do not
depend on which seeds share its loop.  The evaluator is the term kernel of
the fields, :func:`~qctl.packets.term_fields`, on one row per packet of
every running seed (each fan's rows tiled from its packets' constants by
:func:`~qctl.packets.row_constants`, :func:`~qctl.packets.row_coefficients`
once per step for all stage times, the kernel once per stage), so it equals
:func:`velocity` and the density of the fields bit for bit.  The loop holds
the state of the running seeds only, with one exit code each: 0 while the
seed runs, else the index of its status in ``_STATUSES``, set once at t = 0
and once at the end of each iteration.  A seed leaves when its code is set,
and becomes its :class:`Trajectory` then; the loop compacts its state, the
code with it, and the kernel's rows, at once.

The velocity is undefined at density nodes and spikes near them.  A step with
a stage density below the density floor is rejected and retried with a
quarter of its size, and a seed whose step falls below ``H_MIN`` stalls
instead of extrapolating through the node.  Every rejection shrinks the step
by at least 0.9 (by 4 at the floor), so the run of rejections before a stall
is bounded: log4(h / H_MIN) at the floor, log(h / H_MIN) / log(1 / 0.9) at
worst.  A step that is not finite (the fields overflowed) fails the ``H_MIN``
test too, and a density that is not finite at t = 0 fails the floor, so such
a seed stalls at once, with the status ``stalled-non-finite`` in place of
``stalled-low-density``.  A finite step that falls below ``H_MIN`` in an
attempt whose stage densities all reach the floor stalls as
``stalled-step-collapse``: the error control, not the density floor, shrank
it (a kick near 1e150 gives velocities near 1e150 and starting steps near
1e-132).  Whatever its steps, a seed leaves after ``MAX_ATTEMPTS`` step
attempts, accepted or rejected, with the status ``stalled-work-budget``, so
the loop makes at most ``MAX_ATTEMPTS`` iterations and a seed at most
``2 + 6 * MAX_ATTEMPTS`` evaluator calls.  The default run's longest seed
takes 4,640 attempts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import COMPONENT_WEIGHT, EnsembleSpec, component_fields, norm_constant
from .errors import DomainError, LowDensityError
from .packets import row_constants, row_coefficients, term_fields
from .regime import Regime

__all__ = [
    "ATOL",
    "DENSITY_FLOOR",
    "H_MIN",
    "MAX_ATTEMPTS",
    "Trajectory",
    "current",
    "velocity",
    "trajectory_fans",
    "record_count",
    "record_times",
    "step_count",
]

DENSITY_FLOOR = 1e-12

# Local error allowed per step, in units of the smallest packet width.
ATOL = 1e-12
# Step size below which a seed stalls, in time units.
H_MIN = 1e-10
# Step attempts after which a seed stalls.
MAX_ATTEMPTS = 100_000

STATUS_COMPLETED = "completed"
STATUS_STALLED = "stalled-low-density"
STATUS_NON_FINITE = "stalled-non-finite"
STATUS_COLLAPSED = "stalled-step-collapse"
STATUS_BUDGET = "stalled-work-budget"
# A seed's exit code indexes its status; 0 is a running seed.
_STATUSES = (None, STATUS_COMPLETED, STATUS_STALLED, STATUS_NON_FINITE, STATUS_COLLAPSED,
             STATUS_BUDGET)

# Step-size controller: safety factor, bounds of the change per step, and the
# shrink after a stage fell below the density floor.
_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0
_FLOOR_SHRINK = 0.25

# Dormand-Prince 5(4): nodes, stage rows (the last row is the fifth-order
# solution, whose end velocity is the next step's first stage), error
# weights (fifth minus fourth order) and the dense-output weights.  The
# weights are columns, one entry per stage, zeros included.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [np.array(row)[:, None] for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)]
_E = np.array(
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
)[:, None]
_D = np.array((
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
))[:, None]


@dataclass(frozen=True)
class Trajectory:
    """One integrated trajectory: strictly increasing times, matching positions.

    The step counts describe the integrator's work for this seed:
    ``min_step`` is its smallest accepted step other than the final one,
    which is cut to end on the last sample (inf if there was none), and
    ``evaluations`` counts the evaluator calls that included the seed.
    """

    initial_position: float
    times: np.ndarray
    positions: np.ndarray
    status: str
    accepted_steps: int
    rejected_steps: int
    min_step: float
    evaluations: int


def _flux_and_density(spec: EnsembleSpec, regime: Regime, x, t):
    """Current and diagonal density sharing one component evaluation."""
    [(phi, dphi)] = component_fields([spec], regime, x, t)
    rho = (np.abs(phi) ** 2).sum(axis=0)
    flux = (regime.hbar_tilde / spec.mass) * np.imag(np.conj(phi) * dphi).sum(axis=0)
    return flux, rho


def current(spec: EnsembleSpec, regime: Regime, x, t):
    """Scaled probability current at (x, t)."""
    return _flux_and_density(spec, regime, x, t)[0]


def velocity(spec: EnsembleSpec, regime: Regime, x, t):
    """Guidance velocity j / rho; raises LowDensityError below :data:`DENSITY_FLOOR`."""
    flux, rho = _flux_and_density(spec, regime, x, t)
    if np.any(rho < DENSITY_FLOOR):
        raise LowDensityError(
            f"density below floor {DENSITY_FLOOR:.0e} at t={t}; velocity undefined"
        )
    return flux / np.maximum(rho, 1e-300)


def step_count(t_end: float, dt: float) -> int:
    """Number of sample intervals of length ``dt`` that end exactly at ``t_end``.

    Raises :class:`DomainError` unless ``t_end`` and ``dt`` are positive, the
    count is at most 2^53 (past which a float64 step index ``k``, and so
    ``k * dt``, is not exact; a ``t_end / dt`` that overflows is above it),
    and ``t_end`` is a whole multiple of ``dt`` to a relative 1e-9: rounding
    the count would silently move the final time.
    """
    if not (t_end > 0.0 and dt > 0.0 and t_end / dt <= 2.0**53):
        raise DomainError(f"t_end={t_end} / dt={dt} must be a positive step count of at most 2^53")
    n_steps = round(t_end / dt)
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise DomainError(f"t_end={t_end} must be a whole multiple of dt={dt}")
    return n_steps


def record_count(t_end: float, dt: float, record_every: int = 1) -> int:
    """``len(record_times(t_end, dt, record_every))``, without building them.

    Every ``record_every``-th step from 0, and the last step if it is not one
    of them.
    """
    if not (isinstance(record_every, (int, np.integer)) and record_every >= 1):
        raise DomainError(f"record_every must be an integer >= 1, got {record_every!r}")
    return -(-step_count(t_end, dt) // record_every) + 1


def record_times(t_end: float, dt: float, record_every: int = 1) -> np.ndarray:
    """The sample times ``k * dt`` up to ``t_end``, every ``record_every``-th one.

    The last time is always ``t_end`` itself, also when the step count is not
    a multiple of ``record_every``.  Only the kept steps are built; a
    ``record_every`` above the step count keeps the same two as the count.
    """
    count = record_count(t_end, dt, record_every)
    n_steps = step_count(t_end, dt)
    return np.minimum(np.arange(count) * min(record_every, n_steps), n_steps) * dt


# Stage times are t0 + c_s h0 for the stages after the first.  The last two
# share the node 1, so five rows of term coefficients serve the six stages.
_NODES = np.array(_C[1:-1])[:, None]
_STAGE_NODE = (0, 1, 2, 3, 4, 4)


def _combine(weights, stages):
    """``sum_j w_j k_j`` over the weights (a column) and the first ``stages`` (a stage
    per row), elementwise and in the order of the rows.  A zero weight adds an exact
    zero."""
    return np.add.reduce(weights * stages[: len(weights)], axis=0)


class _Cohort:
    """The running seeds of every fan as rows of the term kernel, one per packet.

    :meth:`select` keeps the rows of the running seeds, :meth:`coefficients`
    computes their term coefficients at a table of seed times, and
    :meth:`evaluate` the velocity and density of every running seed at one
    row of that table.
    """

    def __init__(self, fans):
        constants, row_seed, row_scale, start, unit = [], [], [], [], []
        for spec, regime, seeds in fans:
            n, m = seeds.size, len(spec.packets)
            constants.append(row_constants(spec.packets, regime, n))
            row_seed += [len(unit) + j for j in range(n) for _ in range(m)]
            row_scale += [np.sqrt(COMPONENT_WEIGHT / norm_constant(spec, regime))] * (m * n)
            start += [p in spec.component_starts for p in range(m)] * n
            unit += [regime.hbar_tilde / spec.mass] * n
        self.wall = fans[0][0].wall
        self.all_constants = tuple(map(np.concatenate, zip(*constants)))
        self.row_seed, self.row_scale, self.start, self.unit = map(
            np.array, (row_seed, row_scale, start, unit)
        )
        self.select(np.arange(len(unit)))

    def select(self, running):
        """Keep the rows of the seeds ``running`` (increasing), in that order."""
        r = np.flatnonzero(np.isin(self.row_seed, running))
        self.constants = tuple(column[r] for column in self.all_constants)
        self.owner = np.searchsorted(running, self.row_seed[r])
        # The first row of each component, and the first component of each seed.
        self.starts = np.flatnonzero(self.start[r])
        self.scale = self.row_scale[r[self.starts]]
        self.firsts = np.flatnonzero(np.diff(self.row_seed[r[self.starts]], prepend=-1))
        self.flux_unit = self.unit[running]

    def coefficients(self, t):
        """Term coefficients at the times ``t`` (times, running seeds), a row per time."""
        return row_coefficients(self.constants, t[:, self.owner], self.wall)

    def evaluate(self, coefficients, stage: int, x):
        """``(v, rho)`` of every running seed at positions ``x`` and the time of row
        ``stage`` of ``coefficients``."""
        a, k, xt, c0 = coefficients
        at_stage = (a[stage], k, xt[stage], c0[stage])
        fields = term_fields(at_stage, x[self.owner], self.wall)
        phi, dphi = np.add.reduceat(fields, self.starts, axis=1) * self.scale
        # Each seed's sum over its components (pure a + b, mixed a and b).
        rho = np.add.reduceat(np.abs(phi) ** 2, self.firsts)
        flux = self.flux_unit * np.add.reduceat((np.conj(phi) * dphi).imag, self.firsts)
        return flux / np.maximum(rho, 1e-300), rho


def _initial_step(cohort, x, v, tol, scale, t_stop):
    """Starting step per seed (Hairer, Norsett and Wanner, II.4).

    The packet width stands in for |x| as the length scale of the first
    guess: a position's distance from the origin says nothing about the flow.
    """
    h0 = np.minimum(0.01 * scale / np.maximum(np.abs(v), 1e-300), t_stop)
    v1, _ = cohort.evaluate(cohort.coefficients(h0[None]), 0, x + h0 * v)
    d = np.maximum(np.abs(v), np.abs(v1 - v) / h0) / tol
    return np.minimum(100.0 * h0, (0.01 / np.maximum(d, 1e-15)) ** 0.2)


def _checked_seeds(initial_positions) -> np.ndarray:
    seeds = np.asarray(initial_positions, dtype=float)
    # NaN fails every comparison, so the seeds must pass as finite and negative.
    valid = seeds.ndim == 1 and seeds.size > 0 and np.all(np.isfinite(seeds) & (seeds < 0.0))
    if not valid or np.any(np.diff(seeds) <= 0.0):
        raise DomainError("initial positions must be finite, negative, non-empty and increasing")
    return seeds


def trajectory_fans(
    fans,
    t_end: float,
    dt: float = 1e-3,
    record_every: int = 1,
) -> tuple[list[list[Trajectory]], dict, np.ndarray]:
    """Integrate fans ``(spec, regime, initial_positions)`` sharing the wall in one loop.

    Returns one list of :class:`Trajectory` per fan, each equal to the fan alone, bit for
    bit; the loop's ``evaluator_calls``, ``evaluator_points`` (the sum of the seeds'
    ``evaluations``) and ``iterations`` (the longest-running seed's step attempts); and
    the ``(times, seeds)`` table of every sample, the seeds of the fans in turn, nan past
    a stall.  Each trajectory's ``positions`` is a view of its column, so the samples
    are held once.

    Each trajectory holds the samples at :func:`record_times`: every
    ``record_every``-th multiple of ``dt``, and ``t_end``.  Only those are
    evaluated and kept; the steps, and every kept sample, are the same for any
    ``record_every``.  A seed becomes its :class:`Trajectory` when it leaves
    the loop, through one exit for all four ways out: stalled at t = 0, a
    step below ``H_MIN``, ``MAX_ATTEMPTS`` step attempts, and finished.  After
    a step, finishing outranks a next step below ``H_MIN``, which outranks the
    budget, so a seed that finishes on its last allowed attempt completes.  A
    seed that stalls because its density or step is not finite gets the status
    ``stalled-non-finite``; one whose finite step fell below ``H_MIN`` in an
    attempt with no stage density below the floor, ``stalled-step-collapse``;
    one out of attempts, ``stalled-work-budget``; every other stalled seed
    ``stalled-low-density``.
    """
    fans = [(spec, regime, _checked_seeds(seeds)) for spec, regime, seeds in fans]
    if not fans or any(spec.wall != fans[0][0].wall for spec, _, _ in fans):
        raise DomainError("need at least one fan, and all fans must share the wall")
    times = record_times(t_end, dt, record_every)
    t_stop = times[-1]
    cohort = _Cohort(fans)
    seeds = np.concatenate([fan_seeds for _, _, fan_seeds in fans])
    scale = np.concatenate([np.full(s.size, min(p.sigma0 for p in f.packets)) for f, _, s in fans])
    n = seeds.size
    positions = np.full((times.size, n), np.nan)
    positions[0] = seeds
    members = [None] * n

    v, rho = cohort.evaluate(cohort.coefficients(np.zeros((1, n))), 0, seeds)
    # The running seeds only: their indices; position, time, step size, first
    # stage (the velocity), smallest inner step and tolerance; and samples
    # recorded, steps accepted and rejected, evaluator calls and exit code.
    ids = np.arange(n)
    state = np.stack((seeds, np.zeros(n), np.zeros(n), v, np.full(n, np.inf), ATOL * scale))
    # NaN fails both exit tests, so a seed whose density or step is not
    # finite leaves the loop too, with a status of its own.
    code = np.where(rho >= DENSITY_FLOOR, 0, np.where(np.isfinite(rho), 2, 3))
    held = np.vstack((np.repeat([[1], [0], [0], [1]], n, axis=1), code))
    grow = np.ones(n, dtype=bool)  # false right after a rejected step
    first = True

    while True:
        leaving = held[4] > 0
        if leaving.any():
            # Each leaving seed becomes its trajectory.
            for k in np.flatnonzero(leaving):
                i, (recorded, accepted, rejected, evaluations, code) = ids[k], held[:, k].tolist()
                members[i] = Trajectory(float(seeds[i]), times[:recorded], positions[:recorded, i],
                                        _STATUSES[code], accepted, rejected, float(state[4, k]),
                                        evaluations)
            keep = ~leaving
            if not keep.any():
                break
            ids, state, held, grow = ids[keep], state[:, keep], held[:, keep], grow[keep]
            cohort.select(ids)
        x, t, h, v, inner_min, tol = state
        recorded, accepted, rejected, evaluations, code = held
        if first:
            h[:] = _initial_step(cohort, x, v, tol, scale[ids], t_stop)
            evaluations += 1
            first = False

        # A step that would end within 1% of t_stop is stretched to end on
        # it, so no sliver of a step is left over.
        last = t + 1.01 * h >= t_stop
        h0 = np.where(last, t_stop - t, h)
        coefficients = cohort.coefficients(t + _NODES * h0)
        stages = np.empty((len(_C), ids.size))
        densities = np.empty((len(_C) - 1, ids.size))
        stages[0] = v
        for s, (row, node) in enumerate(zip(_A, _STAGE_NODE)):
            increment = h0 * _combine(row, stages)
            stages[s + 1], densities[s] = cohort.evaluate(coefficients, node, x + increment)
        evaluations += len(_C) - 1
        x1 = x + increment

        low = np.logical_or.reduce(densities < DENSITY_FLOOR, axis=0)
        err = np.abs(h0 * _combine(_E, stages)) / tol
        ok = (err <= 1.0) & ~low
        factor = np.maximum(_SAFETY * np.maximum(err, 1e-10) ** -0.2, _FACTOR_MIN)
        factor = np.minimum(factor, _FACTOR_MAX)
        factor = np.where(grow, factor, np.minimum(factor, 1.0))
        factor[low] = _FLOOR_SHRINK

        # Dense output at the record times in (t0, t1] of each accepted seed,
        # anchored at x1 so that theta = 1 gives x1 exactly.
        t1 = np.where(last, t_stop, t + h0)
        stop = np.where(ok, np.searchsorted(times, t1, side="right"), recorded)
        new = stop - recorded
        if new.any():
            owner = np.repeat(np.arange(ids.size), new)
            cols = np.arange(owner.size) + np.repeat(stop - np.cumsum(new), new)
            theta = (times[cols] - t[owner]) / h0[owner]
            theta1 = 1.0 - theta
            q1 = h0 * stages[0] - increment
            q2 = increment - h0 * stages[-1] - q1
            q3 = h0 * _combine(_D, stages)
            sample = x1[owner] - theta1 * (
                increment[owner] - theta * (q1[owner] + theta * (q2[owner] + theta1 * q3[owner]))
            )
            if cohort.wall:
                # Accepted positions are inside already: the density, and so
                # every accepted stage, vanishes at x >= 0.  Samples between
                # them may overshoot.
                sample = np.minimum(sample, 0.0)
            positions[cols, ids[owner]] = sample
            recorded[:] = stop

        np.copyto(t, t1, where=ok)
        np.copyto(x, x1, where=ok)
        np.copyto(v, stages[-1], where=ok)
        accepted += ok
        rejected += ~ok
        np.copyto(inner_min, np.minimum(inner_min, h0), where=ok & ~last)
        np.multiply(h0, factor, out=h)
        grow = ok
        # The exit code: finished (1); else a next step below H_MIN that is not finite (3),
        # that followed a stage below the floor (2) or neither (4); else out of attempts (5),
        # which every running seed reaches at once.
        budget = 5 if accepted[0] + rejected[0] >= MAX_ATTEMPTS else 0
        small = np.where(np.isfinite(h), np.where(low, 2, 4), 3)
        code[:] = np.where(ok & last, 1, np.where(h >= H_MIN, budget, small))

    # Every call evaluates the seeds still running, the longest-running one among them.
    calls = [tr.evaluations for tr in members]
    loop = dict(evaluator_calls=max(calls), evaluator_points=sum(calls),
                iterations=max(tr.accepted_steps + tr.rejected_steps for tr in members))
    members = iter(members)
    return [[next(members) for _ in fan_seeds] for _, _, fan_seeds in fans], loop, positions
