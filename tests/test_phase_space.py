import math
from dataclasses import replace

import numpy as np
import pytest

from qctl import (
    DomainError,
    EnsembleSpec,
    NumericalGuardError,
    density,
    free_liouville_residual,
    make_regime,
    position_densities,
    quad_integrate,
    wigner_transforms,
)
from qctl import gaussians, phase_space
from qctl.phase_space import wigner_blocks
from qctl.ensembles import pair_weights
from qctl.gaussians import erfcx
from qctl.packets import term_coefficients


def wigner_work(specs, regime, t, R, u):
    """What :func:`wigner_blocks` returns once its blocks are taken: its pair integrals and points."""
    blocks = wigner_blocks(specs, regime, t, R, u)
    try:
        while True:
            next(blocks)
    except StopIteration as stop:
        return stop.value


def free_single(packet):
    return EnsembleSpec("pure", packet, packet, wall=False)


def test_free_gaussian_is_product_gaussian(packet_a, quantum):
    # Oracle: positive product Gaussian centered at (x0, p0) with widths
    # (sigma0, hb / 2 sigma0).
    R = np.linspace(-9.0, -1.0, 81)
    u = np.linspace(-5.0, 1.0, 81)
    field = wigner_transforms([free_single(packet_a)], quantum, 0.0, R, u)[0]
    hb = quantum.hbar_tilde
    oracle = (1.0 / (np.pi * hb)) * np.exp(
        -((R[:, None] - packet_a.x0) ** 2) / (2.0 * packet_a.sigma0**2)
        - 2.0 * packet_a.sigma0**2 * (u[None, :] - packet_a.p0) ** 2 / hb**2
    )
    assert np.max(np.abs(field.values - oracle)) / oracle.max() < 1e-6
    assert field.values.min() > -1e-9 * oracle.max()


def test_superposition_matches_two_gaussian_closed_form(packet_a, packet_b, quantum):
    # Oracle: direct Gaussian integration of the cross term gives
    # W_ab = (1/pi hb) exp(-A^2/2s^2) exp(-2 s^2 (u-pbar)^2/hb^2)
    #        * exp(i [dp R + (xa - xb)(pbar - u)] / hb)
    # with A = R - (xa+xb)/2, dp = pa - pb, pbar = (pa+pb)/2.
    spec = EnsembleSpec("pure", packet_a, packet_b, wall=False)
    hb = quantum.hbar_tilde
    s0 = packet_a.sigma0
    R = np.linspace(-16.0, -4.0, 121)
    u = np.linspace(-4.0, 4.0, 161)
    field = wigner_transforms([spec], quantum, 0.0, R, u)[0]

    x_grid = np.linspace(-40.0, 10.0, 8193)
    from qctl.packets import packet_fields

    psi_a = packet_fields((packet_a,), quantum, x_grid, 0.0, wall=False, gradient=False)[0][0]
    psi_b = packet_fields((packet_b,), quantum, x_grid, 0.0, wall=False, gradient=False)[0][0]
    overlap = quad_integrate(x_grid, np.conj(psi_a) * psi_b)

    def packet_term(packet):
        return (1.0 / (np.pi * hb)) * np.exp(
            -((R[:, None] - packet.x0) ** 2) / (2.0 * s0**2)
            - 2.0 * s0**2 * (u[None, :] - packet.p0) ** 2 / hb**2
        )

    mid = 0.5 * (packet_a.x0 + packet_b.x0)
    p_mid = 0.5 * (packet_a.p0 + packet_b.p0)
    dp = packet_a.p0 - packet_b.p0
    dx = packet_a.x0 - packet_b.x0
    cross = (
        (1.0 / (np.pi * hb))
        * np.exp(
            -((R[:, None] - mid) ** 2) / (2.0 * s0**2)
            - 2.0 * s0**2 * (u[None, :] - p_mid) ** 2 / hb**2
        )
        * np.cos((dp * R[:, None] + dx * (p_mid - u[None, :])) / hb)
    )
    oracle = (packet_term(packet_a) + packet_term(packet_b) + 2.0 * cross) / (
        2.0 * (1.0 + np.real(overlap))
    )
    # The transform is exact; only rounding and the quadrature of the overlap
    # remain.
    assert np.max(np.abs(field.values - oracle)) / np.max(np.abs(oracle)) < 1e-12


def test_interference_ridge_only_for_superposition(pure_spec, mixed_spec, quantum):
    R = np.linspace(-10.5, -9.5, 41)
    u = np.linspace(-2.0, 2.0, 81)
    ridge_pure = wigner_transforms([pure_spec], quantum, 0.0, R, u)[0]
    ridge_mixed = wigner_transforms([mixed_spec], quantum, 0.0, R, u)[0]
    ratio = np.max(np.abs(ridge_pure.values)) / np.max(np.abs(ridge_mixed.values))
    assert ratio > 10.0
    # Fringe wavevector in u equals the packet separation over hb: count sign
    # flips along u through the ridge center (two per fringe period).
    center_row = ridge_pure.values[np.argmin(np.abs(R + 10.0))]
    flips = np.sum(np.diff(np.sign(center_row)) != 0)
    period = 2.0 * np.pi * quantum.hbar_tilde / 10.0
    span = u[-1] - u[0]
    assert flips == pytest.approx(2.0 * span / period, abs=2)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_marginal_identity_at_rest(kind, pure_spec, mixed_spec, quantum):
    spec = pure_spec if kind == "pure" else mixed_spec
    R = np.linspace(-25.0, 0.0, 101)
    u = np.linspace(-8.0, 8.0, 321)
    field = wigner_transforms([spec], quantum, 0.0, R, u)[0]
    diagonal = np.asarray(position_densities([spec], quantum, R, 0.0)[0])
    error = np.max(np.abs(field.momentum_marginal() - diagonal)) / diagonal.max()
    assert error < 1e-4
    assert field.total_mass() == pytest.approx(1.0, abs=1e-4)


def test_mixture_is_average_of_component_fields(packet_a, packet_b, quantum):
    # Linearity: the mixture field interpolates the normalized single-packet
    # fields with the exact trace weights.
    from qctl import norm_constant

    mixed = EnsembleSpec("mixed", packet_a, packet_b)
    only_a = EnsembleSpec("pure", packet_a, packet_a)
    only_b = EnsembleSpec("pure", packet_b, packet_b)
    R = np.linspace(-18.0, -2.0, 41)
    u = np.linspace(-4.0, 4.0, 41)
    t = 1.0
    w_mixed = wigner_transforms([mixed], quantum, t, R, u)[0].values
    w_a = wigner_transforms([only_a], quantum, t, R, u)[0].values
    w_b = wigner_transforms([only_b], quantum, t, R, u)[0].values
    norm_a = norm_constant(only_a, quantum) / 2.0
    norm_b = norm_constant(only_b, quantum) / 2.0
    combined = (norm_a * w_a + norm_b * w_b) / (2.0 * norm_constant(mixed, quantum))
    assert np.max(np.abs(w_mixed - combined)) < 1e-10 * np.max(np.abs(w_mixed))


def test_free_packet_transports_rigidly(packet_a, quantum):
    # Oracle: W(R, u, t) = W(R - u t / m, u, 0) for free evolution.
    spec = free_single(packet_a)
    t = 1.5
    R = np.linspace(-12.0, -2.0, 81)
    u = np.linspace(-5.0, 1.0, 81)
    field = wigner_transforms([spec], quantum, t, R, u)[0]
    hb = quantum.hbar_tilde
    shifted = R[:, None] - u[None, :] * t / packet_a.mass
    oracle = (1.0 / (np.pi * hb)) * np.exp(
        -((shifted - packet_a.x0) ** 2) / (2.0 * packet_a.sigma0**2)
        - 2.0 * packet_a.sigma0**2 * (u[None, :] - packet_a.p0) ** 2 / hb**2
    )
    assert np.max(np.abs(field.values - oracle)) / oracle.max() < 1e-6


def test_liouville_residual_is_discretization_limited(packet_a, quantum):
    spec = free_single(packet_a)
    R = np.linspace(-9.0, -1.0, 81)
    u = np.linspace(-5.0, 1.0, 81)
    field_0 = wigner_transforms([spec], quantum, 1.0, R, u)[0]
    field_1 = wigner_transforms([spec], quantum, 1.01, R, u)[0]
    residual = free_liouville_residual(field_0, field_1, spec)
    assert residual < 1e-2

    R_fine = np.linspace(-9.0, -1.0, 161)
    field_0f = wigner_transforms([spec], quantum, 1.0, R_fine, u)[0]
    field_1f = wigner_transforms([spec], quantum, 1.005, R_fine, u)[0]
    refined = free_liouville_residual(field_0f, field_1f, spec)
    assert residual / refined >= 2.0


def test_liouville_residual_translation_invariance(quantum):
    from qctl import GaussianPacket

    base = GaussianPacket(sigma0=1.0, x0=-5.0, p0=-2.0, mass=1.0)
    moved = GaussianPacket(sigma0=1.0, x0=-8.0, p0=-2.0, mass=1.0)
    u = np.linspace(-5.0, 1.0, 81)

    def residual(packet, lo, hi):
        spec = free_single(packet)
        R = np.linspace(lo, hi, 81)
        f0 = wigner_transforms([spec], quantum, 1.0, R, u)[0]
        f1 = wigner_transforms([spec], quantum, 1.01, R, u)[0]
        return free_liouville_residual(f0, f1, spec)

    first = residual(base, -9.0, -1.0)
    second = residual(moved, -12.0, -4.0)
    assert first == pytest.approx(second, rel=1e-9)


def test_grid_validation(pure_spec, quantum):
    R = np.linspace(-18.0, -2.0, 17)
    u = np.linspace(-4.0, 4.0, 17)
    field = wigner_transforms([pure_spec], quantum, 0.0, R, u)[0]
    other = wigner_transforms([pure_spec], quantum, 0.1, R[1:], u[1:])[0]
    with pytest.raises(DomainError):
        free_liouville_residual(field, other, pure_spec)
    later = wigner_transforms([pure_spec], quantum, 0.1, R, u)[0]
    with pytest.raises(DomainError, match="ordered in time"):
        free_liouville_residual(later, field, pure_spec)
    zero = replace(field, values=np.zeros_like(field.values))
    with pytest.raises(DomainError, match="identically zero"):
        free_liouville_residual(zero, replace(zero, t=0.1), pure_spec)
    with pytest.raises(DomainError):
        wigner_transforms([pure_spec], quantum, 0.0, R[:2], u)


def simpson_wigner(spec, regime, t, R, u, n=200001):
    """Composite Simpson over the wall window |r| <= 2|R| of the density matrix."""
    r = np.linspace(2.0 * R, -2.0 * R, n)
    rho = np.asarray(density(spec, regime, R + 0.5 * r, R - 0.5 * r, t))
    weights = np.full(n, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    weights *= (r[1] - r[0]) / 3.0
    hb = regime.hbar_tilde
    phase = np.exp(-1j * np.outer(u, r) / hb)
    return (phase @ (weights * rho)) / (2.0 * np.pi * hb)


@pytest.mark.parametrize("epsilon", [1.0, 0.01])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_closed_form_matches_fine_simpson(kind, epsilon, pure_spec):
    # Oracle: a brute-force Simpson integral of the density matrix itself,
    # at points far from (R = -12) and near (R = -0.5) the wall, after the
    # reflection of the fast packet.
    spec = pure_spec.as_kind(kind)
    regime = make_regime(epsilon)
    t = 3.0
    coarse = wigner_transforms(
        [spec], regime, t, np.linspace(-30.0, 0.0, 121), np.linspace(-6.0, 6.0, 121)
    )[0]
    peak = np.max(np.abs(coarse.values))
    R = np.array([-12.0, -6.0, -2.5, -0.5])
    u = np.linspace(-5.0, 5.0, 9)
    field = wigner_transforms([spec], regime, t, R, u)[0]
    for i, R_i in enumerate(R):
        reference = simpson_wigner(spec, regime, t, R_i, u)
        assert np.max(np.abs(reference.imag)) < 1e-12 * peak
        assert np.max(np.abs(field.values[i] - reference.real)) < 1e-9 * peak


def ordered_pair_wigner(spec, regime, t, R, u):
    """Every ordered pair (i, j) of same-component terms, each integrated on its own."""
    hb = regime.hbar_tilde
    rows = R < 0.0 if spec.wall else np.ones(R.size, dtype=bool)
    R_in = R[rows][:, None]
    phase = (-1j / hb) * u[None, :]
    lo, hi = (2.0 * R_in, -2.0 * R_in) if spec.wall else (-np.inf, np.inf)
    phase = (phase, np.exp(phase * np.stack((lo, hi))) if spec.wall else 1.0)
    a, k, xt, c0 = term_coefficients(spec.packets, regime, t, spec.wall)
    weights = pair_weights(spec, regime)
    total = np.zeros((R_in.shape[0], u.size), dtype=complex)
    for i, j in np.argwhere(weights):
        left, right = (a[i], k[i], R_in - xt[i]), (np.conj(a[j]), np.conj(k[j]), R_in - xt[j])
        integral = phase_space._pair_integral(left, right, phase, lo, hi)
        total += weights[i, j] * c0[i] * np.conj(c0[j]) * integral
    values = np.zeros((R.size, u.size), dtype=complex)
    values[rows] = total / (2.0 * np.pi * hb)
    return values


@pytest.mark.parametrize("wall", [True, False])
@pytest.mark.parametrize("epsilon", [1.0, 0.01])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_folded_pairs_match_every_ordered_pair(kind, epsilon, wall, packet_a, packet_b):
    # Reference: both (i, j) and (j, i) integrated, the imaginary parts left
    # to cancel; the folded sum integrates i <= j once.
    spec = EnsembleSpec(kind, packet_a, packet_b, wall=wall)
    regime = make_regime(epsilon)
    R = np.linspace(-30.0, 0.0, 61)
    u = np.linspace(-6.0, 6.0, 81)
    for t in (0.0, 3.0):
        reference = ordered_pair_wigner(spec, regime, t, R, u)
        field = wigner_transforms([spec], regime, t, R, u)[0]
        peak = np.max(np.abs(reference.real))
        assert np.max(np.abs(reference.imag)) < 1e-12 * peak
        assert np.max(np.abs(field.values - reference.real)) < 1e-13 * peak


@pytest.mark.parametrize("wall", [True, False])
def test_shared_pair_table_equals_one_ensemble_calls(wall, packet_a, packet_b, quantum):
    pure = EnsembleSpec("pure", packet_a, packet_b, wall=wall)
    mixed = pure.as_kind("mixed")
    R = np.linspace(-20.0, 0.0, 41)
    u = np.linspace(-5.0, 5.0, 31)
    shared = wigner_transforms([pure, mixed], quantum, 3.0, R, u)
    alone = [wigner_transforms([spec], quantum, 3.0, R, u)[0] for spec in (pure, mixed)]
    for together, single in zip(shared, alone):
        assert np.array_equal(together.values, single.values)
    # Wall: 10 unordered pairs of the 4 terms, the mixture's 6 among them.
    # Free: the 3 pairs of the 2 direct terms, the mixture's 2 among them.
    expected = (10, 10, 6) if wall else (3, 3, 2)
    work = [wigner_work(specs, quantum, 3.0, R, u) for specs in ([pure, mixed], [pure], [mixed])]
    assert tuple(pair_integrals for pair_integrals, _ in work) == expected
    assert {points for _, points in work} == {(40 if wall else 41) * u.size}


def test_shared_pair_table_needs_one_set_of_packets(packet_a, packet_b, quantum):
    from qctl import GaussianPacket

    R = np.linspace(-20.0, 0.0, 11)
    u = np.linspace(-5.0, 5.0, 11)
    pure = EnsembleSpec("pure", packet_a, packet_b)
    moved = EnsembleSpec("mixed", packet_a, GaussianPacket(x0=-14.0, p0=2.0))
    with pytest.raises(DomainError):
        wigner_transforms([pure, moved], quantum, 0.0, R, u)
    with pytest.raises(DomainError):
        wigner_transforms([pure, EnsembleSpec("mixed", packet_a, packet_b, wall=False)], quantum, 0.0, R, u)
    with pytest.raises(DomainError):
        wigner_transforms([], quantum, 0.0, R, u)


@pytest.mark.parametrize("wall", [True, False])
def test_blocked_fields_equal_one_block(wall, packet_a, packet_b, nearly_classical, monkeypatch):
    # 41 u points: the default block is 99 rows, which 301 R rows (some of
    # them beyond the wall) are not a multiple of; one row and the whole
    # grid are the extremes.
    pure = EnsembleSpec("pure", packet_a, packet_b, wall=wall)
    R = np.linspace(-30.0, 5.0, 301)
    u = np.linspace(-6.0, 6.0, 41)
    blocked = wigner_transforms([pure, pure.as_kind("mixed")], nearly_classical, 3.0, R, u)
    # Every block size counts the points of the rows it integrates.
    points = (np.count_nonzero(R < 0.0) if wall else R.size) * u.size
    for block in (u.size, 7 * u.size, R.size * u.size):
        monkeypatch.setattr(phase_space, "BLOCK_POINTS", block)
        other = wigner_transforms([pure, pure.as_kind("mixed")], nearly_classical, 3.0, R, u)
        for mine, theirs in zip(blocked, other):
            assert mine.values.tobytes() == theirs.values.tobytes()
        assert wigner_work([pure], nearly_classical, 3.0, R, u)[1] == points


def test_pair_integrals_see_one_block_at_a_time(mixed_spec, quantum, monkeypatch):
    # Criterion 9's 81 x 8001 grid: one R row per block, so erfcx sees both
    # window ends of 8001 points, never the whole grid.
    sizes = []

    def spy(z):
        sizes.append(z.size)
        return erfcx(z)

    monkeypatch.setattr(gaussians, "erfcx", spy)
    R = np.linspace(-40.0, 0.0, 81)
    u = np.linspace(-200.0, 200.0, 8001)
    wigner_transforms([mixed_spec], quantum, 0.0, R, u)
    block = max(1, phase_space.BLOCK_POINTS // u.size) * u.size
    assert len(sizes) == 6 * 80
    assert max(sizes) <= 2 * block < R.size * u.size


def test_non_finite_wigner_values_trip_the_guard(pure_spec, quantum, monkeypatch):
    def not_a_number(left, right, phase, lo, hi):
        return np.full(np.broadcast_shapes(left[2].shape, phase[0].shape), np.nan + 0j)

    monkeypatch.setattr(phase_space, "_pair_integral", not_a_number)
    with pytest.raises(NumericalGuardError):
        wigner_transforms(
            [pure_spec], quantum, 0.0, np.linspace(-5.0, 0.0, 6), np.linspace(-1.0, 1.0, 5)
        )


def test_faddeeva_matches_real_axis_erfcx():
    x = np.linspace(0.0, 25.0, 501)
    reference = np.array([math.erfc(v) * math.exp(v * v) for v in x])
    assert np.max(np.abs(erfcx(x + 0j) - reference) / reference) < 1e-12
    assert np.max(np.abs(erfcx(x + 0j).imag)) == 0.0


def test_faddeeva_conjugate_symmetry():
    rng = np.random.default_rng(7)
    z = np.abs(rng.normal(scale=3.0, size=2000)) + 1j * rng.normal(scale=30.0, size=2000)
    assert np.max(np.abs(erfcx(np.conj(z)) - np.conj(erfcx(z))) / np.abs(erfcx(z))) < 1e-14


def test_faddeeva_large_argument_asymptote():
    # erfcx(z) = 1 / (z sqrt(pi)) (1 - 1 / (2 z^2) + ...) as |z| grows in Re z >= 0.
    angles = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 13)
    z = np.concatenate([radius * np.exp(1j * angles) for radius in (1e4, 1e6)])
    asymptote = 1.0 / (z * np.sqrt(np.pi))
    assert np.max(np.abs(erfcx(z) / asymptote - 1.0)) < 1e-8
