"""Acceptance suite: one check per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS/FAIL report per criterion.  Every tolerance is fixed here, not tuned at
run time.  The reference parameters are m = 1, hbar = 1, sigma0 = 1,
packet centers -5 / -15 with kicks -2 / +2, detector at -30.
"""

import math

import numpy as np
import pytest

from qctl import (
    arrival_distribution,
    current,
    effective_force,
    ehrenfest_residual,
    fringe_visibility,
    make_regime,
    observable_record,
    packet_center,
    complex_width,
    position_densities,
    purity,
    quad_integrate,
    trajectory_fans,
    wigner_transforms,
)
from qctl.ensembles import EnsembleSpec


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


TRACE_GRID = np.linspace(-130.0, 0.0, 8193)
ARRIVAL_GRID = np.linspace(0.0, 40.0, 4001)


def test_criterion_1_epsilon_scaling_equivalence(pure_spec, mixed_spec):
    """Quantities computed at (eps, hbar=1) equal those at (1, sqrt(eps))."""
    direct = make_regime(0.01, 1.0)
    folded = make_regime(1.0, math.sqrt(0.01))
    x = np.linspace(-20.0, 0.0, 257)
    worst = 0.0

    def register(a, b):
        nonlocal worst
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        scale = np.maximum(np.abs(a), 1e-300)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))

    register(
        position_densities([pure_spec], direct, x, 3.0)[0],
        position_densities([pure_spec], folded, x, 3.0)[0],
    )
    register(current(mixed_spec, direct, x, 3.0), current(mixed_spec, folded, x, 3.0))
    register(purity(mixed_spec, direct, 2.0), purity(mixed_spec, folded, 2.0))
    for regime_pair in [(direct, folded)]:
        rec_a = observable_record(mixed_spec, regime_pair[0], 4.0)
        rec_b = observable_record(mixed_spec, regime_pair[1], 4.0)
        register(
            [rec_a.mean_x, rec_a.mean_p, rec_a.sd_x, rec_a.sd_p, rec_a.f_nc],
            [rec_b.mean_x, rec_b.mean_p, rec_b.sd_x, rec_b.sd_p, rec_b.f_nc],
        )
    t_grid = np.linspace(0.0, 30.0, 1501)
    stats_a = arrival_distribution(pure_spec, direct, -30.0, t_grid)
    stats_b = arrival_distribution(pure_spec, folded, -30.0, t_grid)
    register([stats_a.mean_t, stats_a.sd_t], [stats_b.mean_t, stats_b.sd_t])
    register(stats_a.pdf, stats_b.pdf)
    R = np.linspace(-18.0, -2.0, 33)
    u = np.linspace(-4.0, 4.0, 33)
    register(
        wigner_transforms([mixed_spec], direct, 1.0, R, u)[0].values,
        wigner_transforms([mixed_spec], folded, 1.0, R, u)[0].values,
    )
    tr_a = trajectory_fans([(mixed_spec, direct, [-14.0])], 0.5, 1e-3)[0][0][0]
    tr_b = trajectory_fans([(mixed_spec, folded, [-14.0])], 0.5, 1e-3)[0][0][0]
    register(tr_a.positions, tr_b.positions)

    _report("criterion 1 (epsilon scaling)", worst <= 1e-12, f"worst rel dev {worst:.3e}")


def test_criterion_2_norm_and_purity_conservation(pure_spec, mixed_spec):
    """|tr rho - 1| < 1e-6 and |purity(t) - purity(0)| < 1e-4 on [0, 20]."""
    worst_trace = 0.0
    worst_purity = 0.0
    for eps in (1.0, 0.01):
        regime = make_regime(eps)
        for spec in (pure_spec, mixed_spec):
            for t in (0.0, 4.0, 8.0, 12.0, 16.0, 20.0):
                trace = quad_integrate(
                    TRACE_GRID, position_densities([spec], regime, TRACE_GRID, t)[0]
                )
                worst_trace = max(worst_trace, abs(trace - 1.0))
            baseline = purity(spec, regime, 0.0)
            for t in (5.0, 10.0, 15.0, 20.0):
                drift = abs(purity(spec, regime, t) - baseline)
                worst_purity = max(worst_purity, drift)
    ok = worst_trace < 1e-6 and worst_purity < 1e-4
    _report(
        "criterion 2 (norm and purity conservation)",
        ok,
        f"max |tr-1| {worst_trace:.3e}, max purity drift {worst_purity:.3e}",
    )


def test_criterion_3_dressing_oracle(packet_a):
    """Free-packet trajectories match x_t + offset * |s_t| / sigma0 to 1e-3."""
    spec = EnsembleSpec("pure", packet_a, packet_a, wall=False)
    regime = make_regime(1.0)
    offsets = np.linspace(-2.0, 2.0, 10)
    worst = 0.0
    for offset in offsets:
        trajectory = trajectory_fans([(spec, regime, [packet_a.x0 + offset])], 5.0, 1e-3)[0][0][0]
        widths = np.abs(complex_width(packet_a, regime, trajectory.times))
        oracle = (
            packet_center(packet_a, trajectory.times)
            + offset * widths / packet_a.sigma0
        )
        worst = max(
            worst, float(np.max(np.abs(trajectory.positions - oracle) / np.abs(oracle)))
        )
    _report("criterion 3 (dressing oracle)", worst < 1e-3, f"worst rel dev {worst:.3e}")


def test_criterion_4_non_crossing(pure_spec, mixed_spec):
    """20-seed fans keep strict ordering at every step for eps in {1, 0.01}."""
    seeds = np.linspace(-18.0, -2.0, 20)
    worst_gap = np.inf
    stalled = 0
    overshoot = -np.inf
    for eps in (1.0, 0.01):
        regime = make_regime(eps)
        for spec in (pure_spec, mixed_spec):
            fan = trajectory_fans([(spec, regime, seeds)], 15.0, 1e-3)[0][0]
            stalled += sum(tr.status != "completed" for tr in fan)
            for tr in fan:
                overshoot = max(overshoot, float(np.max(tr.positions)))
            for lower, upper in zip(fan, fan[1:]):
                shared = min(lower.positions.size, upper.positions.size)
                gap = float(np.min(upper.positions[:shared] - lower.positions[:shared]))
                worst_gap = min(worst_gap, gap)
    ok = worst_gap > -1e-6 and overshoot <= 1e-9
    _report(
        "criterion 4 (non-crossing fans)",
        ok,
        f"min gap {worst_gap:.3e}, max position {overshoot:.3e}, stalled {stalled}",
    )


def test_criterion_5_ehrenfest(mixed_spec):
    """|d<x>/dt - <p>/m| < 1e-4 and |d<p>/dt - f_nc| < 1e-3 at t in {1,5,9}."""
    regime = make_regime(1.0)
    worst_r1 = worst_r2 = 0.0
    for t in (1.0, 5.0, 9.0):
        r1, r2 = ehrenfest_residual(mixed_spec, regime, t)
        worst_r1 = max(worst_r1, abs(r1))
        worst_r2 = max(worst_r2, abs(r2))
    ok = worst_r1 < 1e-4 and worst_r2 < 1e-3
    _report(
        "criterion 5 (Ehrenfest identities)",
        ok,
        f"max |r1| {worst_r1:.3e}, max |r2| {worst_r2:.3e}",
    )


def test_criterion_6_heisenberg_bound(mixed_spec):
    """sd_x * sd_p - sqrt(eps)/2 >= -1e-9 over t in [0, 20], three regimes."""
    worst = np.inf
    for eps in (1.0, 0.5, 0.01):
        regime = make_regime(eps)
        for t in np.arange(0.0, 20.01, 1.0):
            record = observable_record(mixed_spec, regime, t)
            margin = record.uncertainty_product - 0.5 * regime.hbar_tilde
            worst = min(worst, margin)
    _report("criterion 6 (Heisenberg bound)", worst >= -1e-9, f"min margin {worst:.3e}")


def test_criterion_7_arrival_monotonicity(pure_spec, mixed_spec):
    """Mean and spread of arrival times decrease from eps=1 to eps=0.01."""
    ok = True
    details = []
    for spec, name in ((pure_spec, "pure"), (mixed_spec, "mixed")):
        means, sds = [], []
        for eps in (1.0, 0.1, 0.01):
            stats = arrival_distribution(spec, make_regime(eps), -30.0, ARRIVAL_GRID)
            norm = quad_integrate(stats.t_grid, stats.pdf)
            ok = ok and abs(norm - 1.0) < 1e-6
            means.append(stats.mean_t)
            sds.append(stats.sd_t)
        ok = ok and means[0] > means[1] > means[2] and sds[0] > sds[1] > sds[2]
        details.append(f"{name} means {np.round(means, 3)} sds {np.round(sds, 3)}")
    _report("criterion 7 (arrival monotonicity)", ok, "; ".join(details))


def test_criterion_8_collision_time_signature(mixed_spec):
    """|f_nc| peaks within t in [6.5, 8.5] around the classical value 7.5."""
    regime = make_regime(0.01)
    times = np.linspace(0.0, 15.0, 1501)
    force = np.asarray(effective_force(mixed_spec, regime, times))
    peak_time = float(times[int(np.argmax(np.abs(force)))])
    ok = 6.5 <= peak_time <= 8.5
    _report("criterion 8 (collision-time signature)", ok, f"peak at t = {peak_time:.2f}")


def test_criterion_9_wigner_marginals_and_ridge(pure_spec, mixed_spec):
    """Marginal identity to 1e-4 of peak at t in {0, 7}; interference ridge
    present only for the superposition (ratio > 10)."""
    regime = make_regime(1.0)
    R = np.linspace(-40.0, 0.0, 81)
    u = np.linspace(-200.0, 200.0, 8001)
    worst = 0.0
    for spec in (pure_spec, mixed_spec):
        for t in (0.0, 7.0):
            field = wigner_transforms([spec], regime, t, R, u)[0]
            diagonal = np.asarray(position_densities([spec], regime, R, t)[0])
            err = float(np.max(np.abs(field.momentum_marginal() - diagonal)))
            worst = max(worst, err / float(diagonal.max()))
    R_mid = np.linspace(-10.5, -9.5, 41)
    u_mid = np.linspace(-2.0, 2.0, 81)
    ridge_pure = wigner_transforms([pure_spec], regime, 0.0, R_mid, u_mid)[0]
    ridge_mixed = wigner_transforms([mixed_spec], regime, 0.0, R_mid, u_mid)[0]
    ratio = float(np.max(np.abs(ridge_pure.values)) / np.max(np.abs(ridge_mixed.values)))
    ok = worst < 1e-4 and ratio > 10.0
    _report(
        "criterion 9 (Wigner marginal and ridge)",
        ok,
        f"worst marginal err {worst:.3e}, ridge ratio {ratio:.1f}",
    )


def test_criterion_10_fringe_washing(pure_spec):
    """Interference visibility decreases monotonically as epsilon drops."""
    overlap_time = 2.5  # centers meet: (x0a - x0b) / (p0b - p0a)
    values = [
        fringe_visibility(pure_spec, make_regime(eps), overlap_time, window=(-10.0, 0.0))
        for eps in (1.0, 0.5, 0.1, 0.01)
    ]
    ok = all(a > b for a, b in zip(values, values[1:]))
    _report(
        "criterion 10 (fringe washing)",
        ok,
        "visibility " + ", ".join(f"{v:.4g}" for v in values),
    )
