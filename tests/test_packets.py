import numpy as np
import pytest

from qctl import (
    DomainError,
    GaussianPacket,
    complex_width,
    current,
    ehrenfest_residual,
    fringe_visibility,
    make_regime,
    observable_record,
    packet_center,
    position_densities,
    purity,
    quad_integrate,
    wigner_transforms,
)
from qctl.ensembles import mass_below
from qctl.packets import packet_fields, packet_terms


@pytest.mark.parametrize(
    "hbar_tilde, t, expected",
    [(1.0, 0.0, 1.0 + 0.0j), (1.0, 2.0, 1.0 + 1.0j), (0.1, 2.0, 1.0 + 0.1j)],
)
def test_complex_width(hbar_tilde, t, expected):
    packet = GaussianPacket(sigma0=1.0, x0=-5.0, p0=0.0, mass=1.0)
    regime = make_regime(hbar_tilde**2, 1.0)
    assert complex_width(packet, regime, t) == pytest.approx(expected, abs=1e-15)


def test_packet_center_linear_motion():
    packet = GaussianPacket(sigma0=1.0, x0=-5.0, p0=-2.0, mass=1.0)
    assert packet_center(packet, 0.0) == pytest.approx(-5.0)
    assert packet_center(packet, 2.0) == pytest.approx(-9.0)
    # The packet kicked toward the wall reaches it at m |x0| / p0.
    toward_wall = GaussianPacket(sigma0=1.0, x0=-15.0, p0=2.0, mass=1.0)
    assert packet_center(toward_wall, 7.5) == pytest.approx(0.0, abs=1e-14)


def test_invalid_packet_parameters():
    with pytest.raises(DomainError):
        GaussianPacket(sigma0=-1.0, x0=-5.0, p0=0.0)
    with pytest.raises(DomainError):
        GaussianPacket(sigma0=1.0, x0=5.0, p0=0.0)
    with pytest.raises(DomainError):
        GaussianPacket(sigma0=1.0, x0=-2.0, p0=0.0)  # closer than 3 sigma0
    with pytest.raises(DomainError):
        GaussianPacket(sigma0=1.0, x0=-5.0, p0=0.0, mass=0.0)


def test_free_peak_modulus():
    packet = GaussianPacket(sigma0=1.0, x0=-5.0, p0=0.0, mass=1.0)
    regime = make_regime(1.0)
    peak = abs(packet_fields((packet,), regime, -5.0, 0.0, wall=False, gradient=False)[0][0])
    assert peak == pytest.approx((2.0 * np.pi) ** -0.25, abs=1e-12)
    assert peak == pytest.approx(0.63161878, abs=1e-7)


@pytest.mark.parametrize("t", [0.0, 5.0])
def test_free_evolution_is_unitary(t):
    packet = GaussianPacket(sigma0=1.0, x0=-5.0, p0=-2.0, mass=1.0)
    regime = make_regime(1.0)
    x = np.linspace(-80.0, 40.0, 8193)
    psi = packet_fields((packet,), regime, x, t, wall=False, gradient=False)[0][0]
    norm = quad_integrate(x, np.abs(psi) ** 2)
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_free_envelope_width_matches_complex_width():
    # Oracle: second moment of |psi|^2 by quadrature against |st|.
    packet = GaussianPacket(sigma0=1.0, x0=-5.0, p0=0.0, mass=1.0)
    regime = make_regime(1.0)
    t = 2.0
    x = np.linspace(-40.0, 30.0, 8193)
    rho = np.abs(packet_fields((packet,), regime, x, t, wall=False, gradient=False)[0][0]) ** 2
    mean = quad_integrate(x, x * rho)
    sd = np.sqrt(quad_integrate(x, (x - mean) ** 2 * rho))
    assert sd == pytest.approx(abs(complex_width(packet, regime, t)), rel=1e-9)
    assert sd == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_wall_node_is_exact():
    packet = GaussianPacket(sigma0=1.0, x0=-15.0, p0=2.0, mass=1.0)
    regime = make_regime(0.25)
    for t in (0.0, 3.0, 7.5, 12.0):
        assert packet_fields((packet,), regime, 0.0, t, gradient=False)[0][0] == 0.0 + 0.0j
        assert packet_fields((packet,), regime, 1.0, t, gradient=False)[0][0] == 0.0 + 0.0j
        assert packet_fields((packet,), regime, 17.3, t, gradient=False)[0][0] == 0.0 + 0.0j


def test_wall_matches_free_far_from_wall():
    packet = GaussianPacket(sigma0=1.0, x0=-5.0, p0=-2.0, mass=1.0)
    regime = make_regime(1.0)
    free = packet_fields((packet,), regime, -5.0, 0.0, wall=False, gradient=False)[0][0]
    walled = packet_fields((packet,), regime, -5.0, 0.0, gradient=False)[0][0]
    assert abs(walled - free) / abs(free) < 1e-5
    # The deviation is exactly the image term evaluated directly.
    image = packet_fields((packet,), regime, 5.0, 0.0, wall=False, gradient=False)[0][0]
    assert abs(walled - (free - image)) == 0.0


def test_mirror_construction_is_odd(rng):
    packet = GaussianPacket(sigma0=1.0, x0=-5.0, p0=-2.0, mass=1.0)
    regime = make_regime(0.5)
    x = rng.uniform(-8.0, 8.0, size=32)
    t = 1.3
    image_pair = (
        packet_fields((packet,), regime, x, t, wall=False, gradient=False)[0][0]
        - packet_fields((packet,), regime, -x, t, wall=False, gradient=False)[0][0]
    )
    mirrored = (
        packet_fields((packet,), regime, -x, t, wall=False, gradient=False)[0][0]
        - packet_fields((packet,), regime, x, t, wall=False, gradient=False)[0][0]
    )
    assert np.max(np.abs(image_pair + mirrored)) == 0.0


def test_half_line_norm_is_conserved():
    packet = GaussianPacket(sigma0=1.0, x0=-15.0, p0=2.0, mass=1.0)
    regime = make_regime(1.0)
    x = np.linspace(-60.0, 0.0, 8193)
    norms = [
        quad_integrate(x, np.abs(packet_fields((packet,), regime, x, t, gradient=False)[0][0]) ** 2)
        for t in (0.0, 2.5, 5.0, 7.5, 10.0)
    ]
    assert np.max(np.abs(np.asarray(norms) / norms[0] - 1.0)) < 1e-6


def test_gradient_matches_finite_differences(rng):
    packet = GaussianPacket(sigma0=1.0, x0=-5.0, p0=-2.0, mass=1.0)
    regime = make_regime(1.0)
    step = 1e-5 * packet.sigma0
    for _ in range(20):
        x = rng.uniform(-10.0, -0.5)
        t = rng.uniform(0.0, 5.0)
        analytic = packet_fields((packet,), regime, x, t)[1][0]
        numeric = (
            packet_fields((packet,), regime, x + step, t, gradient=False)[0][0]
            - packet_fields((packet,), regime, x - step, t, gradient=False)[0][0]
        ) / (2.0 * step)
        assert abs(analytic - numeric) / abs(numeric) < 1e-6


def test_gradient_vanishes_at_center_of_stationary_packet():
    packet = GaussianPacket(sigma0=1.0, x0=-10.0, p0=0.0, mass=1.0)
    regime = make_regime(1.0)
    assert abs(packet_fields((packet,), regime, -10.0, 0.0)[1][0]) < 1e-10


def test_gradient_at_wall_is_twice_free_gradient():
    packet = GaussianPacket(sigma0=1.0, x0=-15.0, p0=2.0, mass=1.0)
    regime = make_regime(1.0)
    for t in (5.0, 7.5, 9.0):
        at_wall = packet_fields((packet,), regime, 0.0, t)[1][0]
        free_part = packet_fields((packet,), regime, 0.0, t, wall=False)[1][0]
        assert at_wall == pytest.approx(2.0 * free_part, rel=1e-14)
        assert abs(at_wall) > 0.0


def test_broadcasts_over_time_arrays():
    packet = GaussianPacket(sigma0=1.0, x0=-5.0, p0=-2.0, mass=1.0)
    regime = make_regime(0.01)
    t = np.linspace(0.0, 10.0, 11)
    values = packet_fields((packet,), regime, -4.0, t, gradient=False)[0][0]
    assert values.shape == t.shape
    single = packet_fields((packet,), regime, -4.0, t[3], gradient=False)[0][0]
    assert values[3] == single


def test_coefficients_rebuild_wall_amplitudes():
    packets = (
        GaussianPacket(sigma0=1.0, x0=-5.0, p0=-2.0, mass=1.0),
        GaussianPacket(sigma0=0.7, x0=-15.0, p0=2.0, mass=1.0),
    )
    regime = make_regime(0.5)
    x = np.linspace(-20.0, 0.0, 81)
    t = 3.0
    C, A, B, G = packet_terms(packets, regime, t)
    assert C.shape == A.shape == B.shape == G.shape == (2, 2)
    for i, packet in enumerate(packets):
        terms = C[i][:, None] * np.exp((A[i][:, None] * x + B[i][:, None]) * x + G[i][:, None])
        expected = packet_fields((packet,), regime, x, t, gradient=False)[0][0]
        assert np.max(np.abs(terms.sum(axis=0) - expected)) < 1e-14


@pytest.mark.parametrize("wall", [True, False])
def test_packet_terms_take_an_array_of_times(wall):
    # The time axis comes first, then packet and term, and every time's terms
    # are bit-equal to its scalar call.
    packets = (GaussianPacket(x0=-5.0, p0=-2.0), GaussianPacket(sigma0=0.7, x0=-15.0, p0=2.0))
    regime = make_regime(0.1)
    t = np.array([[0.0, 1.5, 3.0], [4.5, 6.0, 20.0]])
    together = packet_terms(packets, regime, t, wall)
    for index in np.ndindex(t.shape):
        alone = packet_terms(packets, regime, t[index], wall)
        for E, single in zip(together, alone):
            assert E.shape == t.shape + (2, 1 + wall)
            assert np.array_equal(E[index], single)


# Library calls at a time that is not finite, and the smoothing width that is
# not: each used to warn from numpy and return nan, a tiny visibility or a
# NumericalGuardError.
_R = np.linspace(-10.0, 0.0, 9)
_NON_FINITE_CALLS = {
    "ehrenfest_residual inf": lambda spec, regime: ehrenfest_residual(spec, regime, np.inf),
    "fringe_visibility inf": lambda spec, regime: fringe_visibility(spec, regime, np.inf),
    "fringe_visibility nan": lambda spec, regime: fringe_visibility(spec, regime, np.nan),
    "fringe_visibility sigma_obs inf": lambda spec, regime: fringe_visibility(
        spec, regime, 2.5, sigma_obs=np.inf),
    "purity inf": lambda spec, regime: purity(spec, regime, np.inf),
    "mass_below nan": lambda spec, regime: mass_below(spec, regime, np.nan, -1.0),
    "current nan": lambda spec, regime: current(spec, regime, -3.0, np.nan),
    "position_densities inf": lambda spec, regime: position_densities([spec], regime, -3.0, np.inf),
    "observable_record inf": lambda spec, regime: observable_record(spec, regime, np.inf),
    "wigner_transforms inf": lambda spec, regime: wigner_transforms([spec], regime, np.inf, _R, _R),
}


@pytest.mark.parametrize("call", _NON_FINITE_CALLS.values(), ids=_NON_FINITE_CALLS)
def test_non_finite_time_is_a_domain_error(call, pure_spec, quantum):
    with pytest.raises(DomainError):
        call(pure_spec, quantum)
