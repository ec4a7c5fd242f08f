import numpy as np
import pytest

from qctl import (
    DomainError,
    EnsembleSpec,
    NumericalGuardError,
    arrival_distribution,
    make_regime,
    quad_integrate,
)

T_GRID = np.linspace(0.0, 40.0, 4001)


def test_pdf_is_normalized_and_nonnegative(pure_spec, quantum):
    stats = arrival_distribution(pure_spec, quantum, -30.0, T_GRID)
    assert np.all(stats.pdf >= 0.0)
    assert quad_integrate(stats.t_grid, stats.pdf) == pytest.approx(1.0, abs=1e-12)
    assert stats.sd_t >= 0.0


def test_mean_arrival_time_decreases_toward_classical(pure_spec):
    means = [
        arrival_distribution(pure_spec, make_regime(eps), -30.0, T_GRID).mean_t
        for eps in (1.0, 0.1, 0.01)
    ]
    assert means[0] > means[1] > means[2]


def test_pure_and_mixed_agree_in_classical_regime(pure_spec, mixed_spec, nearly_classical):
    mean_pure = arrival_distribution(pure_spec, nearly_classical, -30.0, T_GRID).mean_t
    mean_mixed = arrival_distribution(mixed_spec, nearly_classical, -30.0, T_GRID).mean_t
    assert abs(mean_pure - mean_mixed) / mean_mixed < 0.02


def test_ballistic_oracle_for_single_packet(packet_a, nearly_classical):
    # Oracle: a sharp left-moving packet crosses X at m (X - x0) / p0.
    spec = EnsembleSpec("pure", packet_a, packet_a)
    t_grid = np.linspace(0.0, 25.0, 2501)
    stats = arrival_distribution(spec, nearly_classical, -30.0, t_grid)
    ballistic = packet_a.mass * (-30.0 - packet_a.x0) / packet_a.p0
    assert abs(stats.mean_t - ballistic) / ballistic < 0.05


def test_grid_refinement_stability(pure_spec, quantum):
    coarse = arrival_distribution(pure_spec, quantum, -30.0, T_GRID)
    fine = arrival_distribution(pure_spec, quantum, -30.0, np.linspace(0.0, 40.0, 8001))
    assert abs(coarse.mean_t - fine.mean_t) < 1e-3


def test_detector_never_reached(pure_spec, quantum):
    with pytest.raises(NumericalGuardError):
        arrival_distribution(pure_spec, quantum, -59.0, np.linspace(0.0, 2.0, 201))


def test_input_validation(pure_spec, quantum):
    with pytest.raises(DomainError):
        arrival_distribution(pure_spec, quantum, 1.0, T_GRID)
    with pytest.raises(DomainError):
        arrival_distribution(pure_spec, quantum, -30.0, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        arrival_distribution(pure_spec, quantum, -30.0, np.linspace(-1.0, 1.0, 11))


def test_sweep_matches_single_distribution(pure_spec, quantum):
    # A sweep over epsilon is one distribution per regime; each row equals
    # the regime's distribution alone, whatever was evaluated before it.
    single = arrival_distribution(pure_spec, quantum, -30.0, T_GRID)
    swept = [arrival_distribution(pure_spec, r, -30.0, T_GRID) for r in (make_regime(0.1), quantum)]
    assert swept[1].mean_t == single.mean_t
    assert np.array_equal(swept[1].pdf, single.pdf)


def test_sweep_spread_decreases_with_epsilon(mixed_spec):
    regimes = [make_regime(eps) for eps in (1.0, 0.1, 0.01)]
    rows = [arrival_distribution(mixed_spec, r, -30.0, T_GRID) for r in regimes]
    sds = [row.sd_t for row in rows]
    assert sds[0] > sds[1] > sds[2]


def test_sweep_rows_respect_regime_scaling(pure_spec):
    import math

    direct = arrival_distribution(pure_spec, make_regime(0.25, 1.0), -30.0, T_GRID)
    folded = arrival_distribution(
        pure_spec, make_regime(1.0, math.sqrt(0.25)), -30.0, T_GRID
    )
    assert direct.mean_t == folded.mean_t
    assert direct.sd_t == folded.sd_t


def test_current_is_evaluated_in_bounded_blocks(pure_spec, quantum):
    # |j| is evaluated a block of times at a time, so the peak of a call
    # grows with a few arrays of the grid, not with the fields of every time
    # (about 22 MB here when the whole grid was evaluated at once).
    import tracemalloc

    t_grid = np.linspace(0.0, 40.0, 65537)
    arrival_distribution(pure_spec, quantum, -30.0, T_GRID)  # fill the caches
    tracemalloc.start()
    try:
        arrival_distribution(pure_spec, quantum, -30.0, t_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
