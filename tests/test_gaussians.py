import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qctl
from qctl import EnsembleSpec, GaussianPacket, make_regime
from qctl.ensembles import _pair_table
from qctl.gaussians import gaussians

PACKETS = (
    GaussianPacket(sigma0=1.0, x0=-5.0, p0=-2.0, mass=1.0),
    GaussianPacket(sigma0=1.0, x0=-15.0, p0=2.0, mass=1.0),
)


def simpson(x, f):
    """Composite Simpson with the step from the interval, not from a grid difference."""
    h = (x[-1] - x[0]) / (x.size - 1)
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


def pair_exponent(epsilon, t, i, j, wall=True):
    """(alpha, beta, gamma) of g_i conj(g_j) for terms (packet, term) i and j, in
    its centred coordinate y = x - c, and the centre c."""
    spec = EnsembleSpec("pure", *PACKETS, wall=wall)
    _, centre, left, right, gamma = _pair_table(spec, make_regime(epsilon), t, every=True)
    terms = 1 + wall
    n = (i[0] * terms + i[1]) * 2 * terms + j[0] * terms + j[1]
    alpha, beta = (left + right)[:, n]
    return alpha, beta, gamma[n], centre[n]


# (epsilon, t, term i, term j, wall, integration range of the reference)
CASES = {
    "left of the wall": (1.0, 0.0, (0, 0), (0, 0), True, (-60.0, 0.0)),
    "right of the wall, image-image": (1.0, 0.0, (0, 1), (0, 1), True, (-60.0, 0.0)),
    "far right, image-image": (1.0, 0.0, (1, 1), (1, 1), True, (-60.0, 0.0)),
    "direct-image, eps 0.01": (0.01, 0.0, (0, 0), (0, 1), True, (-60.0, 0.0)),
    "direct-image, eps 0.01, t 3": (0.01, 3.0, (1, 0), (1, 1), True, (-60.0, 0.0)),
    "no wall": (1.0, 3.0, (0, 0), (1, 0), False, (-60.0, 40.0)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_moments_match_simpson(case):
    epsilon, t, i, j, wall, (lo, hi) = CASES[case]
    alpha, beta, gamma, centre = pair_exponent(epsilon, t, i, j, wall)
    if case.startswith("direct-image"):
        assert abs(beta.imag) > 35.0
    # x <= 0 with the wall, the whole line without it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = gaussians(alpha, beta, gamma, -np.inf, -centre if wall else np.inf, 3)
    # Far in the tail each recurrence step loses about 2 |w|^2 in relative
    # accuracy (w = beta / 2 sqrt(-alpha) is 10.6 for the far-right pair).
    check_moments(moments, alpha, beta, gamma, lo - centre, hi - centre)


def check_moments(moments, alpha, beta, gamma, lo, hi, tolerance=1e-10):
    """Each moment within ``tolerance`` of Simpson's |integrand| integral of its Simpson value."""
    y = np.linspace(lo, hi, 400_001)
    f = np.exp((alpha * y + beta) * y + gamma)
    for n in range(len(moments)):
        reference = simpson(y, y**n * f)
        scale = simpson(y, np.abs(y**n * f))
        assert abs(moments[n] - reference) < tolerance * scale, (n, moments[n], reference)


# (term i, term j, window in x) at eps 0.01, t 3, where packet a's direct term
# is centred at -11 and packet b's at -9: windows that lie left of a pair's
# peak, straddle it, lie right of it, and end at the wall.
WINDOWS = {
    "left of the peak": ((0, 0), (0, 0), (-30.0, -14.0)),
    "straddling the peak": ((0, 0), (0, 0), (-13.0, -9.0)),
    "right of the peak": ((1, 0), (1, 0), (-3.0, -1.0)),
    "direct-image to the wall": ((1, 0), (1, 1), (-4.0, 0.0)),
}


@pytest.mark.parametrize("window", list(WINDOWS))
def test_finite_windows_match_simpson(window):
    # Both ends finite, as the Wigner window |r| <= 2|R| is: each end's erfcx
    # term and its y^n e^E enter the moments.
    i, j, (lo, hi) = WINDOWS[window]
    alpha, beta, gamma, centre = pair_exponent(0.01, 3.0, i, j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = gaussians(alpha, beta, gamma, lo - centre, hi - centre, 3)
    check_moments(moments, alpha, beta, gamma, lo - centre, hi - centre)
    # Only the orders asked for.
    assert np.array_equal(gaussians(alpha, beta, gamma, lo - centre, hi - centre), moments[:1])


def test_moments_broadcast_over_pairs():
    wall_cases = [case[:5] for case in CASES.values() if case[4]]
    alpha, beta, gamma, centre = np.array([pair_exponent(*case) for case in wall_cases]).T
    centre = centre.real
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = gaussians(alpha, beta, gamma, -np.inf, -centre, 3)
        windows = gaussians(alpha, beta, gamma, -centre - 4.0, -centre, 3)
    assert batch.shape == windows.shape == (3, alpha.size)
    for k in range(alpha.size):
        assert np.array_equal(batch[:, k], gaussians(alpha[k], beta[k], gamma[k], -np.inf, -centre[k], 3))
        assert np.array_equal(windows[:, k], gaussians(alpha[k], beta[k], gamma[k], -centre[k] - 4.0, -centre[k], 3))


def test_faddeeva_literals_equal_their_fft():
    # Weideman's construction: the real part of an 80-point FFT of
    # exp(-s^2) (L^2 + s^2) at s = L tan(theta / 2), highest power first.
    n = 40
    m = 2 * n
    scale = np.sqrt(n / np.sqrt(2.0))
    theta = np.arange(-m + 1, m) * np.pi / m
    s = scale * np.tan(0.5 * theta)
    f = np.concatenate(([0.0], np.exp(-s * s) * (scale * scale + s * s)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    assert qctl.gaussians._FADDEEVA_SCALE == scale
    assert np.array_equal(np.array(qctl.gaussians._FADDEEVA_COEFFICIENTS), a[n:0:-1])


def test_no_run_imports_the_fft():
    code = (
        "import sys, numpy as np, qctl\n"
        "a = qctl.GaussianPacket(x0=-5.0, p0=-2.0)\n"
        "b = qctl.GaussianPacket(x0=-15.0, p0=2.0)\n"
        "spec = qctl.EnsembleSpec('pure', a, b)\n"
        "qctl.position_densities([spec], qctl.make_regime(1.0), np.linspace(-9, 0, 5), 1.0)\n"
        "qctl.wigner_transforms([spec], qctl.make_regime(1.0), 1.0, np.linspace(-9, 0, 5), np.linspace(-1, 1, 5))\n"
        "qctl.trajectory_fans([(spec, qctl.make_regime(1.0), [-6.0])], 0.1, 0.01)\n"
        "qctl.arrival_distribution(spec, qctl.make_regime(1.0), -10.0, np.linspace(0, 5, 51))\n"
        "scipy = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
        "sys.exit(int('numpy.fft' in sys.modules) + 2 * bool(scipy))\n"
    )
    src = str(Path(qctl.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0
