"""The oracles against brute-force numerics, so a wrong oracle fails here.

    python3 -m pytest perfbench/test_oracles.py
"""

import math

import numpy as np
import pytest

import oracles

A = oracles.Packet(1.0, -4.9, -2.02)
B = oracles.Packet(1.0, -15.1, 1.98)


def ensemble(kind, hb):
    return oracles.Ensemble(kind, A, B, hb)


def brute_wigner(rho_xy, R, u, hb, r_lo, r_hi, n=60001):
    """(1 / 2 pi hb) integral exp(-i u r / hb) rho(R + r/2, R - r/2) dr, trapezoid."""
    r = np.linspace(r_lo, r_hi, n)
    values = rho_xy(R + 0.5 * r, R - 0.5 * r) * np.exp(-1j * u * r / hb)
    return np.trapezoid(values, r) / (2.0 * math.pi * hb)


@pytest.mark.parametrize("hb", [1.0, 0.1])
@pytest.mark.parametrize("t", [0.0, 3.0])
def test_free_wigner_is_the_fourier_integral_of_the_free_packet(hb, t):
    def rho_xy(x, y):
        return oracles.free_psi(A, hb, 1.0, x, t) * np.conj(oracles.free_psi(A, hb, 1.0, y, t))

    centre = A.x0 + A.p0 * t
    for R, u in [(centre, A.p0), (centre + 0.7, A.p0 - 0.3 * hb), (centre - 1.3, A.p0 + 0.5 * hb)]:
        expected = brute_wigner(rho_xy, R, u, hb, -40.0, 40.0)
        got = oracles.free_wigner(A, hb, 1.0, R, u, t)
        assert abs(expected.imag) < 1e-12
        assert abs(got - expected.real) < 1e-9 / (math.pi * hb)


def test_cross_envelope_is_the_modulus_of_the_cross_term():
    hb, t = 0.3, 2.0
    p, q = A, oracles.mirror(B)

    def rho_xy(x, y):
        return oracles.free_psi(p, hb, 1.0, x, t) * np.conj(oracles.free_psi(q, hb, 1.0, y, t))

    for R, u in [(-2.0, 0.1), (-1.5, -0.2), (0.5, 0.05)]:
        expected = abs(brute_wigner(rho_xy, R, u, hb, -80.0, 80.0, n=200001))
        got = oracles.cross_wigner_envelope(p, q, hb, 1.0, R, u, t) / (math.pi * hb)
        assert abs(got - expected) < 1e-9 / (math.pi * hb)


@pytest.mark.parametrize("hb", [1.0, 0.1])
def test_free_packet_solves_the_schrodinger_equation(hb):
    x = np.linspace(-12.0, 2.0, 141)
    t, h, k = 1.3, 1e-4, 1e-4
    psi = lambda x, t: oracles.free_psi(A, hb, 1.0, x, t)  # noqa: E731
    dt = (psi(x, t + k) - psi(x, t - k)) / (2.0 * k)
    d2x = (psi(x + h, t) - 2.0 * psi(x, t) + psi(x - h, t)) / h**2
    residual = 1j * hb * dt + 0.5 * hb**2 * d2x
    scale = np.max(np.abs(hb**2 * d2x))
    assert np.max(np.abs(residual)) < 1e-5 * scale
    dx = (psi(x + h, t) - psi(x - h, t)) / (2.0 * h)
    assert np.max(np.abs(dx - oracles.free_dpsi(A, hb, 1.0, x, t))) < 1e-6 * np.max(np.abs(dx))


def test_free_packet_starts_as_the_kicked_gaussian():
    x = np.linspace(-10.0, 0.0, 101)
    expected = (2 * math.pi) ** -0.25 * np.exp(-((x - A.x0) ** 2) / 4.0 + 1j * A.p0 * x / 0.5)
    assert np.max(np.abs(oracles.free_psi(A, 0.5, 1.0, x, 0.0) - expected)) < 1e-15


def test_wall_amplitude_has_a_node_at_the_wall():
    for t in (0.0, 7.5):
        assert abs(oracles.wall_psi(B, 0.1, 1.0, -1e-13, t)) < 1e-10
        assert oracles.wall_psi(B, 0.1, 1.0, 0.5, t) == 0.0


@pytest.mark.parametrize("kind", oracles.KINDS)
@pytest.mark.parametrize("hb", [1.0, 0.1])
def test_trace_is_one_and_conserved(kind, hb):
    state = oracles.State(ensemble(kind, hb))
    assert abs(state.norm - oracles.trace0(state.ens, 80001)) < 1e-12
    for t in (0.0, 4.0, 9.0):
        lo, _ = state.support(t)
        x = np.linspace(lo, 0.0, 80001)
        assert abs(oracles.simpson(x, state.rho(x, t)) - 1.0) < 1e-9
        assert abs(state.mass_left(np.array([0.0]), t)[0] - 1.0) < 1e-6


@pytest.mark.parametrize("kind", oracles.KINDS)
def test_current_obeys_the_continuity_equation(kind):
    state = oracles.State(ensemble(kind, 0.3))
    x = np.linspace(-20.0, -0.5, 300)
    t, h, k = 6.0, 1e-4, 1e-4
    drho_dt = (state.rho(x, t + k) - state.rho(x, t - k)) / (2.0 * k)
    dj_dx = (state.current(x + h, t) - state.current(x - h, t)) / (2.0 * h)
    assert np.max(np.abs(drho_dt + dj_dx)) < 1e-5 * np.max(np.abs(drho_dt))


@pytest.mark.parametrize("kind", oracles.KINDS)
def test_density_matrix_diagonal_is_the_density(kind):
    state = oracles.State(ensemble(kind, 0.1))
    x = np.linspace(-25.0, 0.0, 501)
    diagonal = state.rho_xy(x, x, 3.0)
    assert np.max(np.abs(diagonal.imag)) < 1e-15 * np.max(diagonal.real)
    assert np.max(np.abs(diagonal.real - state.rho(x, 3.0))) < 1e-15


def test_mass_left_matches_simpson():
    state = oracles.State(ensemble("pure", 0.1))
    t = 2.5  # the packets overlap: fringes of wavelength ~0.16
    lo, _ = state.support(t)
    for x_end in (-12.0, -10.03, -7.5):
        x = np.linspace(lo, x_end, 200001)
        expected = oracles.simpson(x, state.rho(x, t))
        assert abs(state.mass_left(np.array([x_end]), t)[0] - expected) < 1e-5


def test_classical_arrivals_match_a_ballistic_simulation():
    ens = ensemble("mixed", 0.1)
    X = -30.0
    dt = 1e-5
    t = np.arange(0.0, 40.0, dt)
    for packet, expected in zip(ens.packets, oracles.classical_arrivals(ens, X)):
        x = packet.x0 + packet.p0 * t
        x = np.where(x > 0.0, -x, x)  # elastic reflection at the wall
        crossing = np.flatnonzero((x[:-1] > X) & (x[1:] <= X))
        assert crossing.size == 1
        assert abs(t[crossing[0]] - expected) < 2 * dt


@pytest.mark.parametrize("kind", oracles.KINDS)
@pytest.mark.parametrize("t", [0.0, 7.0])
def test_neglected_bound_covers_the_exact_wigner_function(kind, t):
    hb = 0.1
    state = oracles.State(ensemble(kind, hb))
    R = np.array([-30.0, -19.0, -15.0, -9.5, -8.0, -4.0, -1.0])
    u = np.array([-2.5, -2.0, -0.3, 0.0, 2.0])
    for Ri in R:
        for uj in u:
            exact = brute_wigner(
                lambda x, y: state.rho_xy(x, y, t), Ri, uj, hb, 2.0 * Ri, -2.0 * Ri, n=160001
            ).real
            model = 0.5 * sum(oracles.free_wigner(p, hb, 1.0, Ri, uj, t) for p in (A, B)) / state.norm
            bound = oracles.neglected_wigner_bound(state, np.array([Ri]), np.array([uj]), t)[0]
            assert abs(exact - model) <= bound + 1e-8 / (math.pi * hb)
