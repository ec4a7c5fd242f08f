import tracemalloc

import numpy as np
import pytest

from qctl import (
    DomainError,
    EnsembleSpec,
    GaussianPacket,
    NumericalGuardError,
    density,
    fringe_visibility,
    make_regime,
    norm_constant,
    position_densities,
    purity,
    quad_integrate,
)
from qctl import ensembles
from qctl.packets import packet_fields


def test_spec_validation(packet_a, packet_b):
    with pytest.raises(DomainError):
        EnsembleSpec("thermal", packet_a, packet_b)
    heavy = GaussianPacket(sigma0=1.0, x0=-15.0, p0=2.0, mass=2.0)
    with pytest.raises(DomainError):
        EnsembleSpec("pure", packet_a, heavy)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_hermiticity(kind, pure_spec, mixed_spec, quantum, rng):
    spec = pure_spec if kind == "pure" else mixed_spec
    for _ in range(25):
        x, y = rng.uniform(-20.0, 0.0, size=2)
        t = rng.uniform(0.0, 10.0)
        forward = density(spec, quantum, x, y, t)
        backward = density(spec, quantum, y, x, t)
        assert forward == pytest.approx(np.conj(backward), abs=1e-14)


def test_polar_phase_antisymmetry(pure_spec, quantum, rng):
    # Amplitude symmetric, phase antisymmetric under argument exchange.
    for _ in range(25):
        x, y = rng.uniform(-18.0, -1.0, size=2)
        t = rng.uniform(0.0, 8.0)
        forward = complex(density(pure_spec, quantum, x, y, t))
        backward = complex(density(pure_spec, quantum, y, x, t))
        if abs(forward) > 1e-12:
            assert abs(forward) == pytest.approx(abs(backward), rel=1e-12)
            phase_sum = np.angle(forward) + np.angle(backward)
            assert np.cos(phase_sum) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_vanishes_at_and_beyond_wall(kind, pure_spec, mixed_spec, quantum):
    spec = pure_spec if kind == "pure" else mixed_spec
    assert density(spec, quantum, 0.0, 0.0, 3.0) == 0.0 + 0.0j
    assert density(spec, quantum, 1.0, -5.0, 3.0) == 0.0 + 0.0j
    assert density(spec, quantum, -5.0, 2.0, 3.0) == 0.0 + 0.0j


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("t", [0.0, 5.0, 10.0])
def test_trace_normalization(kind, t, pure_spec, mixed_spec, quantum):
    spec = pure_spec if kind == "pure" else mixed_spec
    x = np.linspace(-90.0, 0.0, 8193)
    trace = quad_integrate(x, position_densities([spec], quantum, x, t)[0])
    assert trace == pytest.approx(1.0, abs=1e-6)


def test_diagonal_positivity(mixed_spec, pure_spec, quantum):
    x = np.linspace(-40.0, 0.0, 2049)
    for spec in (mixed_spec, pure_spec):
        assert np.all(position_densities([spec], quantum, x, 6.0)[0] >= 0.0)


def test_degenerate_mixture_equals_single_packet_state(packet_a, quantum):
    degenerate = EnsembleSpec("mixed", packet_a, packet_a)
    single = EnsembleSpec("pure", packet_a, packet_a)
    x = np.linspace(-12.0, 0.0, 301)
    rho_mixed = density(degenerate, quantum, x, x - 0.7, 2.0)
    rho_pure = density(single, quantum, x, x - 0.7, 2.0)
    assert np.max(np.abs(rho_mixed - rho_pure)) < 1e-12
    # Both reduce to the normalized single-packet projector.
    norm = quad_integrate(
        np.linspace(-30.0, 0.0, 4097),
        np.abs(
            packet_fields((packet_a,), quantum, np.linspace(-30.0, 0.0, 4097), 2.0, gradient=False)[0][0]
        )
        ** 2,
    )
    reference = (
        packet_fields((packet_a,), quantum, x, 2.0, gradient=False)[0][0]
        * np.conj(packet_fields((packet_a,), quantum, x - 0.7, 2.0, gradient=False)[0][0])
        / norm
    )
    assert np.max(np.abs(rho_pure - reference)) < 1e-9


def test_norm_constant_is_cached(pure_spec, quantum):
    assert norm_constant(pure_spec, quantum) is norm_constant(pure_spec, quantum)
    assert norm_constant(pure_spec, quantum) > 0.0


def test_purity_of_pure_state(pure_spec, quantum):
    assert purity(pure_spec, quantum, 0.0) == pytest.approx(1.0, abs=1e-4)


def test_purity_of_mixture_against_overlap_oracle(mixed_spec, quantum, packet_a, packet_b):
    # Oracle: tr(rho^2) for an equal mixture of (possibly non-orthogonal)
    # normalized components via 1-D overlap quadrature,
    #   tr(rho^2) = (|<a|a>|^2 + 2 |<a|b>|^2 + |<b|b>|^2) / (4 D^2).
    x = np.linspace(-40.0, 0.0, 8193)
    psi_a = packet_fields((packet_a,), quantum, x, 0.0, gradient=False)[0][0]
    psi_b = packet_fields((packet_b,), quantum, x, 0.0, gradient=False)[0][0]
    norm_a = quad_integrate(x, np.abs(psi_a) ** 2)
    norm_b = quad_integrate(x, np.abs(psi_b) ** 2)
    overlap = quad_integrate(x, np.conj(psi_a) * psi_b)
    d0 = 0.5 * (norm_a + norm_b)
    oracle = (abs(norm_a) ** 2 + 2.0 * abs(overlap) ** 2 + abs(norm_b) ** 2) / (4.0 * d0**2)

    value = purity(mixed_spec, quantum, 0.0)
    assert value == pytest.approx(oracle, abs=1e-4)
    assert abs(overlap) < 1e-4
    assert value == pytest.approx(0.5, abs=1e-4)


def test_purity_is_exact_after_the_reflection(pure_spec, mixed_spec, quantum):
    # At t = 20 and eps = 1 about 3% of the mass is beyond x = -60, the
    # default grid's edge; the closed form has no edge.
    assert purity(pure_spec, quantum, 20.0) == pytest.approx(1.0, abs=1e-12)
    assert purity(mixed_spec, quantum, 20.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_purity_is_conserved(kind, pure_spec, mixed_spec, quantum):
    spec = pure_spec if kind == "pure" else mixed_spec
    values = [purity(spec, quantum, t) for t in (0.0, 5.0, 10.0)]
    assert np.max(np.abs(np.asarray(values) - values[0])) < 1e-4


def test_position_density_is_real(pure_spec, quantum):
    x = np.linspace(-30.0, 0.0, 501)
    rho = position_densities([pure_spec], quantum, x, 4.0)[0]
    assert np.isrealobj(rho)


def test_position_density_guard_trips_on_bad_input(pure_spec, quantum, monkeypatch):
    import qctl.ensembles as ensembles

    def broken_contraction(phi_x, phi_y):
        return phi_x.sum(axis=0) * 0.0 + 1e-6j

    monkeypatch.setattr(ensembles, "_contract", broken_contraction)
    with pytest.raises(NumericalGuardError):
        ensembles.position_densities([pure_spec], quantum, np.array([-1.0]), 0.0)
    with pytest.raises(NumericalGuardError):
        ensembles.position_densities([pure_spec, pure_spec.as_kind("mixed")], quantum, np.array([-1.0]), 0.0)


@pytest.mark.parametrize("wall", [True, False])
def test_shared_densities_equal_one_spec_calls(wall, packet_a, packet_b, quantum):
    pure = EnsembleSpec("pure", packet_a, packet_b, wall=wall)
    mixed = pure.as_kind("mixed")
    x = np.linspace(-40.0, 5.0, 901)
    for t in (0.0, 7.0):
        shared = position_densities([pure, mixed, pure], quantum, x, t)
        alone = [position_densities([spec], quantum, x, t)[0] for spec in (pure, mixed, pure)]
        for together, single in zip(shared, alone):
            assert together.tobytes() == single.tobytes()
    scalar = position_densities([mixed, pure], quantum, -6.0, 1.0)
    assert [float(rho) for rho in scalar] == [
        float(position_densities([spec], quantum, -6.0, 1.0)[0]) for spec in (mixed, pure)
    ]


def test_shared_densities_need_one_set_of_packets(packet_a, packet_b, quantum):
    pure = EnsembleSpec("pure", packet_a, packet_b)
    moved = EnsembleSpec("mixed", packet_a, GaussianPacket(x0=-14.0, p0=2.0))
    x = np.linspace(-20.0, 0.0, 11)
    with pytest.raises(DomainError):
        position_densities([pure, moved], quantum, x, 0.0)
    with pytest.raises(DomainError):
        position_densities([pure, EnsembleSpec("mixed", packet_a, packet_b, wall=False)], quantum, x, 0.0)


def test_interference_fringes_in_reflection_window(pure_spec, quantum):
    # Quantum regime at the wall-collision time: several interference maxima.
    x = np.linspace(-10.0, 0.0, 1001)
    rho = np.asarray(position_densities([pure_spec], quantum, x, 7.0)[0])
    interior = rho[1:-1]
    maxima = np.sum((interior > rho[:-2]) & (interior > rho[2:]))
    assert maxima >= 3


def test_fringe_visibility_washes_out(pure_spec, quantum, nearly_classical):
    high = fringe_visibility(pure_spec, quantum, 2.5)
    low = fringe_visibility(pure_spec, nearly_classical, 2.5)
    assert low < 0.1 * high


def test_fringe_visibility_window_validation(pure_spec, quantum):
    with pytest.raises(DomainError):
        fringe_visibility(pure_spec, quantum, 2.5, window=(0.0, -10.0))
    with pytest.raises(DomainError):
        fringe_visibility(pure_spec, quantum, 2.5, sigma_obs=0.0)


def test_fringe_visibility_evaluates_the_packets_once(pure_spec, quantum, monkeypatch):
    calls = []
    evaluate = ensembles.packet_fields

    def counted(*args, **kwargs):
        calls.append(args[3])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(ensembles, "packet_fields", counted)
    for spec in (pure_spec, pure_spec.as_kind("mixed")):
        fringe_visibility(spec, quantum, 2.5)
    assert calls == [2.5, 2.5]


def test_fringe_visibility_point_budget(pure_spec):
    # At eps = 1e-10 a sixteenth of the fringe wavelength asks for about 1.3e7
    # points; the budget rejects them before any array is allocated.
    assert ensembles.VISIBILITY_POINT_BUDGET == 100_000
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="budget"):
            fringe_visibility(pure_spec, make_regime(1e-10), 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_norm_constant_cache_is_bounded():
    assert norm_constant.cache_info().maxsize is not None
