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


@pytest.mark.parametrize("kind", ["pure", "mixed"])
# Packets this far out overflow and underflow on the way to a zero trace.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_norm_constant_without_support(kind, quantum):
    far = GaussianPacket(x0=-1e200, p0=1.0)
    with pytest.raises(DomainError, match="no support"):
        norm_constant(EnsembleSpec(kind, far, far), quantum)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the expanded pair exponents cancel, (x0/sigma0)^2/2 * 2^-53")
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_norm_constant_of_narrow_packets(kind, quantum):
    # The default centres and kicks, narrowed: the trace reads 0.50000006.
    a = GaussianPacket(sigma0=3e-8, x0=-5.0, p0=-2.0)
    b = GaussianPacket(sigma0=3e-8, x0=-15.0, p0=2.0)
    assert norm_constant(EnsembleSpec(kind, a, b), quantum) == pytest.approx(1.0, rel=1e-9)


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
    with pytest.raises(DomainError):
        position_densities([], quantum, x, 0.0)


def test_interference_fringes_in_reflection_window(pure_spec, quantum):
    # Quantum regime at the wall-collision time: several interference maxima.
    x = np.linspace(-10.0, 0.0, 1001)
    rho = np.asarray(position_densities([pure_spec], quantum, x, 7.0)[0])
    interior = rho[1:-1]
    maxima = np.sum((interior > rho[:-2]) & (interior > rho[2:]))
    assert maxima >= 3


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("eps", [1.0, 0.01])
def test_mass_below_the_wall_is_one(kind, eps, packet_a, packet_b):
    # The normalization is the exact t = 0 trace and evolution keeps it.
    spec, regime = EnsembleSpec(kind, packet_a, packet_b), make_regime(eps)
    for t in (0.0, 7.0, 15.0):
        assert abs(ensembles.mass_below(spec, regime, t, 0.0) - 1.0) <= 1e-14
        # Beyond the wall there is no mass to add.
        assert ensembles.mass_below(spec, regime, t, 3.0) == ensembles.mass_below(spec, regime, t, 0.0)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("eps", [1.0, 0.01])
def test_mass_below_differentiates_to_the_density(kind, eps, packet_a, packet_b):
    spec, regime = EnsembleSpec(kind, packet_a, packet_b), make_regime(eps)
    X, h = np.linspace(-20.0, -0.5, 397), 1e-5
    for t in (2.5, 7.0):
        slope = (ensembles.mass_below(spec, regime, t, X + h)
                 - ensembles.mass_below(spec, regime, t, X - h)) / (2.0 * h)
        rho = position_densities([spec], regime, X, t)[0]
        assert np.max(np.abs(slope - rho)) <= 1e-7


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_mass_below_with_a_gaussian_weight_matches_quadrature(kind, packet_a, packet_b, quantum):
    spec = EnsembleSpec(kind, packet_a, packet_b)
    a = -8.0  # exp(a (x - c)^2): a Gaussian of width 0.25 centred at c
    for c in (-12.0, -10.0, -3.0, -0.1):
        for upper in (0.0, -9.0):
            x = np.linspace(-60.0, upper, 60001)
            rho = position_densities([spec], quantum, x, 2.5)[0]
            expected = quad_integrate(x, rho * np.exp(a * (x - c) ** 2))
            exact = ensembles.mass_below(spec, quantum, 2.5, upper, a, -2.0 * a * c, a * c * c)
            assert exact == pytest.approx(expected, rel=1e-6, abs=1e-12)


def test_mass_below_broadcasts(pure_spec, quantum):
    upper = np.array([[-12.0], [-8.0]])
    b = np.array([0.0, 0.5, 1.0])
    table = ensembles.mass_below(pure_spec, quantum, 3.0, upper, -0.5, b, 0.0)
    assert table.shape == (2, 3)
    for i, u in enumerate(upper[:, 0]):
        for j, bj in enumerate(b):
            one = ensembles.mass_below(pure_spec, quantum, 3.0, u, -0.5, bj, 0.0)
            assert table[i, j] == pytest.approx(one, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_mass_below_integrates_only_the_shifted_pairs(kind, packet_a, packet_b, quantum, monkeypatch):
    # One gaussian_moments call a mass: the shifted same-component pairs.
    # The unshifted pair integrals of diagonal_pairs are not computed, and
    # the result equals the diagonal_pairs form bit for bit.
    spec = EnsembleSpec(kind, packet_a, packet_b)
    norm_constant(spec, quantum)  # cached, so its own integrals are not counted
    calls = []
    moments = ensembles.gaussian_moments

    def counted(*args, **kwargs):
        calls.append(None)
        return moments(*args, **kwargs)

    monkeypatch.setattr(ensembles, "gaussian_moments", counted)
    upper = np.linspace(-20.0, 0.0, 41)
    mass = ensembles.mass_below(spec, quantum, 2.5, upper)
    assert len(calls) == 1
    pairs = ensembles.diagonal_pairs(spec, quantum, 2.5)
    alpha, beta, gamma = pairs.left + pairs.right
    u = upper[:, None]
    shifted = (alpha + 0.0 * u, beta + 2.0 * alpha * u, gamma + (alpha * u + beta) * u)
    assert np.array_equal(mass, (pairs.coefficient * moments(*shifted)[0]).sum(axis=-1).real)


def test_fringe_visibility_washes_out(pure_spec, quantum, nearly_classical):
    high = fringe_visibility(pure_spec, quantum, 2.5)
    low = fringe_visibility(pure_spec, nearly_classical, 2.5)
    assert low < 0.1 * high


def test_fringe_visibility_window_validation(pure_spec, quantum):
    for window in [(0.0, -10.0), (-np.inf, 0.0), (-10.0, np.inf), (np.nan, 0.0)]:
        with pytest.raises(DomainError, match="finite and increasing"):
            fringe_visibility(pure_spec, quantum, 2.5, window=window)
    with pytest.raises(DomainError):
        fringe_visibility(pure_spec, quantum, 2.5, sigma_obs=0.0)
    # Far from both packets every smoothed density underflows to zero.
    with pytest.raises(DomainError, match="no density"):
        fringe_visibility(pure_spec, quantum, 2.5, window=(-3000.0, -2990.0))


def test_fringe_visibility_smooths_each_sample_once_in_blocks(pure_spec, monkeypatch):
    # The smoothed densities are exact integrals, with no pointwise packet
    # evaluation; each kind smooths every sample of the window once, a block
    # of at most FIELD_BLOCK_POINTS samples at a time, which bounds the memory.
    calls, fields = [], []
    smooth = ensembles.mass_below

    def recorded(spec, regime, t, upper, a, b, g):
        calls.append((spec.kind, b / (-2.0 * a)))
        return smooth(spec, regime, t, upper, a, b, g)

    monkeypatch.setattr(ensembles, "mass_below", recorded)
    monkeypatch.setattr(ensembles, "packet_fields", lambda *args, **kwargs: fields.append(args))
    fringe_visibility(pure_spec, make_regime(1e-4), 2.5)
    assert fields == []
    assert max(x.size for _, x in calls) <= ensembles.FIELD_BLOCK_POINTS
    pure, mixed = (np.concatenate([x for k, x in calls if k == kind]) for kind in ("pure", "mixed"))
    assert pure.size > 5 * ensembles.FIELD_BLOCK_POINTS
    np.testing.assert_allclose(pure, np.linspace(-10.0, 0.0, pure.size), rtol=0, atol=1e-12)
    assert np.array_equal(pure, mixed)


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
