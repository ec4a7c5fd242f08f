"""The numpy CSV formatter writes exactly the bytes of CPython's ``'%.17g' %``."""

import tracemalloc
from decimal import ROUND_FLOOR, Decimal, localcontext

import numpy as np
import pytest

from qctl import csvtext


def cpython(values, last="\n"):
    """Rows of ``'%.17g' % value`` joined by commas, each row ended by ``last``."""
    return "".join(",".join("%.17g" % v for v in row) + last for row in np.atleast_2d(values).tolist()).encode()


def numpy_rows(values):
    return b"".join(csvtext.csv_chunks((), [values]))


def lead_text(values):
    fields = csvtext.lead_fields(values).ravel()
    return fields[fields != 0].tobytes()


def assert_same_text(values):
    """Both separators: values as rows of two, and as leading fields."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size % 2:
        values = np.append(values, 0.0)
    assert numpy_rows(values.reshape(-1, 2)) == cpython(values.reshape(-1, 2))
    assert lead_text(values) == cpython(values[:, None], last=",")


def deferred(values):
    """Indices of the values that the formatter leaves to CPython."""
    return csvtext._words(np.asarray(values, dtype=float))[1]


def near_tie(value):
    """Whether the 17-digit rounding of ``value`` is within 2^-36 of a tie, exactly."""
    with localcontext() as context:
        context.prec = 1000
        scaled = abs(Decimal(value)).scaleb(16 - abs(Decimal(value)).adjusted())
        return abs(scaled - scaled.to_integral_value(ROUND_FLOOR) - Decimal("0.5")) < Decimal(2) ** -36


def assert_decided(values):
    """Below 1e16 only values near a tie go to CPython."""
    values = np.asarray(values, dtype=float)
    late = values[deferred(values)]
    assert all(near_tie(v) for v in late[np.abs(late) < 1e16])


def test_random_bit_patterns():
    bits = np.random.default_rng(20231027).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_same_text(bits.view(np.float64))


def test_random_magnitudes_over_the_fast_range():
    rng = np.random.default_rng(7)
    # Uniform in log|x| from the smallest subnormal to 1e16, either sign.
    x = np.exp(rng.uniform(np.log(5e-324), np.log(1e16), 100_000)) * rng.choice([-1.0, 1.0], 100_000)
    assert_same_text(x)
    assert_decided(x)


def test_neighbours_of_powers_of_ten():
    powers = np.array([10.0**k for k in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_same_text(values)
    # Decided here, where S lands next to 10^16 or 10^17 and may carry.
    assert_decided(values)


def exact_ties(count):
    """Doubles whose exact decimal value has 18 significant digits, the last a 5."""
    ties = [3 * 2.0**-24]
    rng = np.random.default_rng(5)
    while len(ties) < count:
        value = float(rng.integers(1, 2**20)) * 2.0 ** int(rng.integers(-80, 60))
        digits = Decimal(value).normalize().as_tuple().digits
        if len(digits) == 18 and digits[-1] == 5:
            ties.append(value)
    return np.array(ties)


def test_exact_ties_round_half_even():
    ties = exact_ties(200)
    assert "%.17g" % ties[0] == "1.7881393432617188e-07"
    assert_same_text(np.concatenate([ties, -ties]))
    # Every tie goes to CPython.
    assert deferred(ties).size == ties.size


def test_zeros_infinities_nan_and_subnormals():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.225073858507201e-308,
               2.2250738585072014e-308, np.finfo(float).max, -np.finfo(float).max]
    subnormal = np.random.default_rng(2).integers(1, 2**52, 10_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([special, subnormal, -subnormal])
    assert_same_text(values)
    # Only nan, ±inf and the largest magnitudes go to CPython; zeros are literal.
    assert deferred(values).tolist() == [2, 3, 4, 9, 10]


def test_edges_of_the_fast_range():
    # 1e16 and above go to CPython; below about 1e-284 the scaling by 2^200 starts.
    edges = [1e16, 1e-284, 1e-283, 1e-285, 5e-324, 1e-323, 1e-300]
    near = [np.nextafter(e, direction) for e in edges for direction in (0.0, np.inf)]
    assert_same_text(np.concatenate([edges, near, [9999999999999998.0, 9999999999999999.5]]))


def test_trailing_zeros_and_the_point():
    values = [0.5, 100.0, 1e16, 1.25e17, 1e15, 123456789.0, 1.5, 10.0, 0.0001, 0.00012, 1e-5, 0.1,
              12345678901234567.0, 1234567890123456.8, 7.0, 25.5, -0.25, 3.0e-7, 2.0**60]
    assert_same_text(values)
    assert numpy_rows(np.array([[0.5, 100.0, 1e16, 1.25e17]])) == b"0.5,100,10000000000000000,1.25e+17\n"


def test_every_decimal_exponent_and_digit_count():
    # 1 to 17 significant digits in every decade of the fixed and exponent forms.
    digits = np.array([float("1234567890123456789"[:n]) for n in range(1, 18)])
    values = (digits[:, None] * 10.0 ** np.arange(-40, 40)[None, :]).ravel()
    assert_same_text(np.concatenate([values, -values]))


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_blocks_starting_inside_a_chunk(chunk, monkeypatch):
    monkeypatch.setattr(csvtext, "CHUNK_VALUES", chunk)
    rng = np.random.default_rng(11)
    t, x = np.array([0.25, -3.0]), rng.normal(size=50) * 100.0
    values = rng.normal(size=(2, x.size, 3))
    t_leads, x_leads = csvtext.lead_fields(t), csvtext.lead_fields(x)
    blocks = [values[k, rows] for k in range(2) for rows in (slice(0, 13), slice(13, 50))]
    text = b"".join(csvtext.csv_chunks((t_leads, x_leads), blocks))
    expected = cpython([[t_k, x_i, *values[k, i]] for k, t_k in enumerate(t) for i, x_i in enumerate(x)])
    assert text == expected


def test_lead_fields_are_padded_to_the_longest():
    fields = csvtext.lead_fields([1.0, -0.123456789, 2.5])
    assert fields.shape == (3, len(b"-0.123456789,"))
    assert fields[0].tobytes().rstrip(b"\0") == b"1,"
    assert csvtext.lead_fields([]).shape == (0, 0)
    # The longest texts: a sign, 17 digits, the point and a three-digit exponent.
    longest = [-2.2250738585072014e-308, -1.2345678901234567e300, -np.nextafter(0.0, 1.0) * 3]
    assert csvtext.lead_fields(longest).shape == (3, len(b"-2.2250738585072014e-308,"))
    assert lead_text(longest) == cpython(np.array(longest)[:, None], last=",")


def test_lead_fields_allocate_their_rows_once():
    # The texts widen halfway, and the rows are still held in one array of
    # WIDTH bytes a value, not copied from a narrower array into a wider one.
    chunk = csvtext.CHUNK_VALUES
    values = np.repeat([1.0 / 3.0, 1e-5 / 3.0], 16 * chunk)
    csvtext.lead_fields(values[:chunk])  # builds the tables
    tracemalloc.start()
    try:
        fields = csvtext.lead_fields(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fields.shape == (values.size, len(b"%.17g," % (1e-5 / 3.0)))
    assert lead_text(values) == cpython(values[:, None], last=",")
    # The rows, and one chunk's temporaries of about 8 fields a value.  The
    # two arrays of a widening, 20 and 23 bytes a value, would exceed it.
    assert peak < values.size * csvtext.WIDTH + 12 * 32 * chunk
