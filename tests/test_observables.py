import math

import numpy as np
import pytest

from qctl import (
    EnsembleSpec,
    GaussianPacket,
    complex_width,
    effective_force,
    ehrenfest_residual,
    heisenberg_check,
    make_regime,
    observable_record,
)
from qctl import observables
from qctl.ensembles import mass_below, point_blocks

def test_position_moments_of_initial_gaussian(quantum, packet_a):
    spec = EnsembleSpec("pure", packet_a, packet_a)
    record = observable_record(spec, quantum, 0.0)
    mean, sd = record.mean_x, record.sd_x
    assert mean == pytest.approx(-5.0, abs=1e-4)
    assert sd == pytest.approx(1.0, abs=1e-4)


def test_position_spread_follows_complex_width(quantum, packet_a):
    # Oracle: free Gaussian spreading, sd(t) = |st|.
    spec = EnsembleSpec("pure", packet_a, packet_a, wall=False)
    t = 2.0
    sd = observable_record(spec, quantum, t).sd_x
    assert sd == pytest.approx(abs(complex_width(packet_a, quantum, t)), rel=1e-6)


def test_mixture_mean_position(quantum, mixed_spec):
    mean = observable_record(mixed_spec, quantum, 0.0).mean_x
    assert mean == pytest.approx(-10.0, abs=1e-4)


def test_opposite_kicks_cancel_mean_momentum(quantum, mixed_spec):
    # Cancellation holds up to the wall-truncation tail of the closer packet
    # (relative norm defect ~ 4e-6 at 5 sigma0).
    mean_p = observable_record(mixed_spec, quantum, 0.0).mean_p
    assert mean_p == pytest.approx(0.0, abs=1e-5)


def test_single_packet_momentum_moments(quantum):
    packet = GaussianPacket(sigma0=1.0, x0=-10.0, p0=-2.0, mass=1.0)
    spec = EnsembleSpec("pure", packet, packet)
    record = observable_record(spec, quantum, 0.0)
    mean_p, sd_p = record.mean_p, record.sd_p
    assert mean_p == pytest.approx(packet.p0, rel=1e-6)
    assert sd_p == pytest.approx(quantum.hbar_tilde / (2.0 * packet.sigma0), rel=1e-6)


def test_mean_momentum_after_reflection(nearly_classical, mixed_spec):
    # Past the collision both lumps move away from the wall.
    mean_p = observable_record(mixed_spec, nearly_classical, 12.0).mean_p
    assert mean_p < 0.0
    assert mean_p == pytest.approx(-2.0, abs=0.1)


@pytest.mark.parametrize("t", [1.0, 5.0, 9.0])
def test_ehrenfest_identities_for_mixture(t, quantum, mixed_spec):
    r1, r2 = ehrenfest_residual(mixed_spec, quantum, t)
    assert abs(r1) < 1e-4
    assert abs(r2) < 1e-3


def test_ehrenfest_for_free_packet(quantum, packet_a):
    spec = EnsembleSpec("pure", packet_a, packet_a, wall=False)
    r1, r2 = ehrenfest_residual(spec, quantum, 2.0)
    assert abs(r1) < 1e-6
    assert abs(r2) < 1e-6


def test_effective_force_sign_and_quiescence(quantum, mixed_spec):
    times = np.linspace(0.0, 15.0, 151)
    force = np.asarray(effective_force(mixed_spec, quantum, times))
    assert np.all(force <= 0.0)
    # Oracle: hand-evaluated boundary gradients of the initial Gaussians,
    # |d psi/dx|^2 at the wall = 4 [(x0/2s^2)^2 + (p0/hb)^2] |psi(0)|^2.
    from qctl import norm_constant

    hb = quantum.hbar_tilde
    expected = 0.0
    for packet in mixed_spec.packets:
        peak_sq = (2.0 * np.pi * packet.sigma0**2) ** -0.5 * np.exp(
            -packet.x0**2 / (2.0 * packet.sigma0**2)
        )
        slope_sq = 4.0 * ((packet.x0 / (2.0 * packet.sigma0**2)) ** 2 + (packet.p0 / hb) ** 2)
        expected += slope_sq * peak_sq
    expected *= -(hb**2) / (4.0 * mixed_spec.mass) / norm_constant(mixed_spec, quantum)
    assert force[0] == pytest.approx(expected, rel=1e-10)
    assert abs(force[0]) < 1e-4


def test_effective_force_peaks_at_classical_collision_time(nearly_classical, mixed_spec):
    times = np.linspace(0.0, 15.0, 1501)
    force = np.asarray(effective_force(mixed_spec, nearly_classical, times))
    peak_time = times[int(np.argmax(np.abs(force)))]
    assert 6.5 <= peak_time <= 8.5


def test_heisenberg_margin_minimum_uncertainty(quantum):
    packet = GaussianPacket(sigma0=1.0, x0=-10.0, p0=-2.0, mass=1.0)
    spec = EnsembleSpec("pure", packet, packet)
    record = observable_record(spec, quantum, 0.0)
    ok, margin = heisenberg_check(record, quantum)
    assert ok
    assert margin == pytest.approx(0.0, abs=1e-6)


def test_heisenberg_margin_degenerate_mixture(quantum):
    packet = GaussianPacket(sigma0=1.0, x0=-10.0, p0=-2.0, mass=1.0)
    spec = EnsembleSpec("mixed", packet, packet)
    record = observable_record(spec, quantum, 0.0)
    ok, margin = heisenberg_check(record, quantum)
    assert ok
    assert margin == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("epsilon", [1.0, 0.5, 0.01])
def test_heisenberg_holds_through_collision(epsilon, mixed_spec):
    regime = make_regime(epsilon)
    for t in (0.0, 4.0, 7.5, 11.0):
        record = observable_record(mixed_spec, regime, t)
        ok, margin = heisenberg_check(record, regime)
        assert ok, f"margin {margin} at t={t}, eps={epsilon}"


def test_position_spread_shrinks_toward_classical(
    quantum, nearly_classical, mixed_spec
):
    sd_quantum = observable_record(mixed_spec, quantum, 3.0).sd_x
    sd_classical = observable_record(mixed_spec, nearly_classical, 3.0).sd_x
    assert sd_classical < sd_quantum


def test_uncertainty_product_inversion_near_collision(
    quantum, nearly_classical, mixed_spec
):
    # Around the reflection the nearly classical product exceeds the quantum
    # one somewhere in the window, even though it is smaller at late times.
    inverted = False
    for t in np.arange(6.0, 8.01, 0.5):
        product_q = observable_record(mixed_spec, quantum, t).uncertainty_product
        product_c = observable_record(mixed_spec, nearly_classical, t).uncertainty_product
        if product_c > product_q:
            inverted = True
    assert inverted


def test_record_fields_are_consistent(quantum, mixed_spec):
    record = observable_record(mixed_spec, quantum, 4.0)
    assert record.uncertainty_product == pytest.approx(record.sd_x * record.sd_p, rel=1e-12)
    assert record.sd_x >= 0.0 and record.sd_p >= 0.0
    assert record.f_nc <= 0.0


def test_pair_table_is_built_once_per_call(mixed_spec, quantum, monkeypatch):
    # The position and momentum moments of every time of one call share one
    # pair table; the Ehrenfest residuals take their three times in one.
    built = []
    build = observables.diagonal_pairs

    def counted(spec, regime, t):
        built.append(np.asarray(t).tolist())
        return build(spec, regime, t)

    monkeypatch.setattr(observables, "diagonal_pairs", counted)
    observables.observable_record(mixed_spec, quantum, 4.0)
    observables.observable_record(mixed_spec, quantum, np.linspace(0.0, 8.0, 5))
    assert built == [4.0, [0.0, 2.0, 4.0, 6.0, 8.0]]
    built.clear()
    observables.ehrenfest_residual(mixed_spec, quantum, 4.0, dt_fd=1e-3)
    assert built == [[4.0 - 1e-3, 4.0, 4.0 + 1e-3]]


def test_an_array_of_times_equals_each_time_alone(pure_spec, nearly_classical, monkeypatch):
    # 1,100 times pass a block of FIELD_BLOCK_POINTS, and their pure pair
    # table (16 pairs) passes the 256 KiB from which numpy reuses temporaries
    # in place.  Tables, masses and records are bit-equal to per-time calls
    # (every 3rd and 10th time, to keep the test short), and sd_x and sd_p
    # square their means as x * x.
    spec, regime = pure_spec, nearly_classical
    times = np.linspace(0.0, 11.0, 1100)
    tables = []
    build = observables.diagonal_pairs

    def kept(spec, regime, t):
        tables.append(build(spec, regime, t))
        return tables[-1]

    monkeypatch.setattr(observables, "diagonal_pairs", kept)
    single = [observable_record(spec, regime, t) for t in times[::3]]
    record = observable_record(spec, regime, times)
    together = tables.pop()
    assert together.coefficient.shape == (1100, 16) and together.integrals.shape == (3, 1100, 16)
    for field in ("coefficient", "left", "right", "integrals"):
        per_time = np.stack([getattr(table, field) for table in tables], axis=-2)
        assert np.array_equal(getattr(together, field)[..., ::3, :], per_time), field
    for field in ("mean_x", "mean_p", "sd_x", "sd_p", "uncertainty_product", "f_nc"):
        alone = [getattr(r, field) for r in single]
        assert np.array_equal(getattr(record, field)[::3], alone), field
    blocks = [observable_record(spec, regime, times[block]).sd_x for block in point_blocks(1100)]
    assert len(blocks) == 2 and np.array_equal(np.concatenate(blocks), record.sd_x)
    hb = regime.hbar_tilde
    for table, r in zip(tables, single):
        (A_i, B_i, _), (A_j, B_j, _) = table.left, table.right
        I0, I1, I2 = table.integrals
        # The position moments are summed in pair order.
        assert r.mean_x == sum(I1.tolist()).real
        second_x = sum(I2.tolist()).real
        second_p = hb**2 * np.sum(
            4.0 * A_i * A_j * I2 + 2.0 * (A_i * B_j + B_i * A_j) * I1 + B_i * B_j * I0).real
        assert r.sd_x == math.sqrt(max(second_x - r.mean_x * r.mean_x, 0.0))
        assert r.sd_p == math.sqrt(max(second_p - r.mean_p * r.mean_p, 0.0))
    upper = np.array([-20.0, -8.0, 0.0])
    masses = mass_below(spec, regime, times[:, None], upper)
    assert np.array_equal(masses[::10], [mass_below(spec, regime, t, upper) for t in times[::10]])
