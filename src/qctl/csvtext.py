"""CSV text of float64 arrays: the bytes of ``'%.17g' % x``, formatted by numpy.

:func:`csv_chunks` writes CSV rows of leading fields and a 2-D block of
floats; :func:`lead_fields` formats an axis of a grid once, for every row of
the grid that repeats its fields.  Each value is first laid out as a field
of :data:`WIDTH` bytes that holds exactly the text of CPython's
``'%.17g' % x`` and its separator, with NUL bytes between its parts; one
boolean mask then drops the NULs of a whole block.

Digits.  A finite |x| in (0, 1e16) is scaled by 10^k, k = 16 - X for its
decimal exponent X, so that S = |x| 10^k lies in [10^16, 10^17); the nearest
integer to S is the 17 significant digits.  10^k is tabulated as a
double-double H + L built from Python integers (L correctly rounded), and |x| H
is formed exactly by Dekker's split product (Numer. Math. 18, 1971), so S is
known to about 1e-14.  X comes from ``log10``; where it is a decade off, S
falls outside [10^16, 10^17) and is formed again in the next decade.  |x| and
the tabulated powers are scaled by 2^200 and 2^-200, which is exact and keeps
every factor a normal number, so subnormals stay on this path.

Deferred values.  As in the decide-or-defer rounding of Adams, "Ryū revisited:
printf floating point conversion" (OOPSLA 2019), a value is decided here only
where the rounding of S is certain: a value within 2^-36 of a rounding tie
(exact ties included) goes to CPython's ``%``, as do nan, ±inf and |x| >= 1e16,
all those of one call in one ``%`` call.  ±0 are literal forms.

Layout of a field, as byte offsets into four little-endian 64-bit words (the
field is bytes 1 to 29): the sign, and for 1e-4 <= |x| < 0.1 the ``0.`` and
leading zeros, end at byte 6; the 17 digits fill bytes 6 to 23 with the point
after the leading ones, their trailing zeros (and a point with no digit after
it) cleared; the exponent ``e±dd`` or ``e±ddd`` ends at byte 28; byte 29 is the
separator.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

__all__ = ["CHUNK_VALUES", "WIDTH", "csv_chunks", "lead_fields"]

# Bytes of one padded field, bytes 1 to 29 of its four words.
WIDTH = 29
# Bytes of the longest text and its comma: a sign, 17 digits, the point and e-ddd.
_LONGEST = 25
# |x| at and above this goes to CPython: 10^k is tabulated for k >= 0 only.
_HIGH = 1e16
# The largest k: the smallest subnormal has X = -324, and the decade that
# log10 gives may be one too high.
_K_MAX = 341
# |x| is scaled by 2^_SHIFT and 10^k by 2^-_SHIFT, which is exact and keeps
# both factors and their split parts normal numbers for every k.
_SHIFT = 200
# Veltkamp's splitting constant, 2^27 + 1.
_SPLIT = 134217729.0
# |S - round(S)| above this is too near a tie to decide here.
_NEAR_TIE = 0.5 - 2.0**-36
_P16, _P17 = 10**16, 10**17
# Stands in for zeros and deferred values, which are written otherwise: its
# digits are 12345678901234567, far from every edge and tie.
_STAND_IN = 1.2345678901234567
_NEWLINE = ord("\n")
# Values formatted by one pass of numpy calls: enough to spread the fixed
# cost of a pass, few enough that its arrays stay in the CPU's caches.
CHUNK_VALUES = 4096


def _word_table(rows) -> np.ndarray:
    """Rows of 24 bytes as three little-endian words: shape (3, len(rows))."""
    return np.ascontiguousarray(np.asarray(rows, dtype=np.uint8).view("<u8").T)


@functools.cache
def _tables() -> SimpleNamespace:
    """The lookup tables, built once per process on first use."""
    hi, lo = [], []
    power = 1
    for k in range(_K_MAX + 1):
        # H + L = 10^k / 2^_SHIFT, H and L correctly rounded.
        h = power / (1 << _SHIFT)
        num, den = h.as_integer_ratio()
        lo.append((power * den - (num << _SHIFT)) / (den << _SHIFT))
        hi.append(h)
        power *= 10
    hi = np.array(hi)
    mantissa, exponent = np.frexp(hi)
    c = _SPLIT * mantissa
    upper = np.ldexp(c - (c - mantissa), exponent)

    k = np.arange(_K_MAX + 1)
    x = 16 - k
    # Digits before the point: X + 1 in the fixed form (-4 <= X <= 16), else 1.
    point = np.where(x >= -4, np.maximum(x + 1, 0), 1)
    # Word 0 per (k, sign): the sign, and the "0." and zeros of -4 <= X < 0,
    # ending at byte 6; the lead digit goes to byte 7 after such a prefix,
    # else to byte 6, with the point at byte 7 when X is not fixed or is 0.
    prefix, exponent_word = [], []
    for xk in x.tolist():
        text = b"0." + b"0" * (-xk - 1) if -4 <= xk < 0 else b""
        for sign in (b"", b"-"):
            prefix.append((sign + text).rjust(7, b"\0") + b"\0" if text else sign.rjust(6, b"\0") + b"\0\0")
        text = b"" if -4 <= xk <= 16 else b"e%+03d" % xk
        exponent_word.append(text.rjust(5, b"\0") + b",\0\0")
    byte = np.arange(24)
    group = np.arange(10000)
    chars = 48 + np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=-1)
    places = np.arange(18)[:, None]
    return SimpleNamespace(
        hi=hi, lo=np.array(lo), hi_upper=upper, hi_lower=hi - upper,
        point=point,
        prefix=np.frombuffer(b"".join(prefix), "<u8"),
        lead_shift=np.where(point == 0, 56, 48).astype(np.uint64),
        point_at_7=np.where(point == 1, ord(".") << 56, 0).astype(np.uint64),
        exponent=np.frombuffer(b"".join(exponent_word), "<u8"),
        # Digits 1 to 16 at bytes 8 to 23, four to a group.
        groups=chars.astype(np.uint8).view("<u4")[:, 0].astype(np.uint64),
        trailing=sum((group % 10**n == 0).astype(np.int64) for n in range(1, 5)),
        # Bytes below 7 + kept digits, the digits kept.
        keep=_word_table(np.where(byte < 7 + np.arange(18)[:, None], 0xFF, 0)),
        # For 2 <= point: digits 1 to point - 1 move from bytes 8.. down to 7..,
        # and the point goes to byte 6 + point.
        below_7=_word_table([np.where(byte < 7, 0xFF, 0)])[:, 0],
        moved=_word_table(np.where((byte >= 7) & (byte < 6 + places), 0xFF, 0)),
        stays=_word_table(np.where(byte >= 7 + places, 0xFF, 0)),
        dot=_word_table(np.where(byte == 6 + places, ord("."), 0)),
    )


def _scaled(a: np.ndarray, k: np.ndarray, t: SimpleNamespace):
    """S = a 10^k as its nearest integer and the remainder S minus that integer; ``a`` is scaled."""
    hu, hl = t.hi_upper.take(k), t.hi_lower.take(k)
    p = a * t.hi.take(k)
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    rest = (((a1 * hu - p) + a1 * hl + a2 * hu) + a2 * hl) + a * t.lo.take(k)
    whole = np.rint(rest)
    # Where the decade is right, p >= 10^16 > 2^53 is a whole number.
    return p.astype(np.int64) + whole.astype(np.int64), rest - whole


def _words(x: np.ndarray):
    """The fields of the 1-D float array ``x`` as (n, 4) words, each ending in a comma.

    Also returns the indices of the values written by CPython's ``%``.
    """
    t = _tables()
    a = np.abs(x)
    zero = a == 0.0
    decided = (a > 0.0) & (a < _HIGH)
    a = np.where(decided, a, _STAND_IN)
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    a *= 2.0**_SHIFT
    d, f = _scaled(a, k, t)
    # S outside [10^16, 10^17): the decade is off, so S is formed again in the
    # next one.  S rounded up to 10^17 carries into the next decade.
    edge = np.flatnonzero((d - (_P16 + 1)).view(np.uint64) >= _P17 - _P16 - 1)
    if edge.size:
        de, fe = d[edge], f[edge]
        step = np.where((de > _P17) | ((de == _P17) & (fe >= 0)), -1,
                        np.where((de < _P16) | ((de == _P16) & (fe < 0)), 1, 0))
        moved = edge[step != 0]
        k[moved] += step[step != 0]
        d[moved], f[moved] = _scaled(a[moved], k[moved], t)
        carry = edge[d[edge] == _P17]
        k[carry] -= 1
        d[carry] = _P16
        decided[edge[(d[edge] < _P16) | (d[edge] >= _P17)]] = False
    deferred = np.flatnonzero(~(decided | zero) | (np.abs(f) > _NEAR_TIE))

    d = d.view(np.uint64)
    upper = d // 10**8
    lower = d - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    g0 = upper // 10**4
    g1 = upper - g0 * 10**4
    g2 = lower // 10**4
    g3 = lower - g2 * 10**4
    # Trailing zero digits; a zero keeps its lead digit only.
    trailing = t.trailing.take(g3) + 16 * zero
    whole = np.flatnonzero(g3 == 0)
    if whole.size:
        h0, h1, h2 = g0[whole], g1[whole], g2[whole]
        trailing[whole] += t.trailing.take(h2) + (h2 == 0) * (
            t.trailing.take(h1) + (h1 == 0) * t.trailing.take(h0))
    point = t.point.take(k)
    kept = np.maximum(17 - trailing, point)
    groups = t.groups
    lead_char = lead + (48 - zero.astype(np.uint64))
    # Little-endian words, so that byte b of a field is bits 8b to 8b + 7.
    out = np.empty((x.size, 4), "<u8")
    out[:, 0] = (t.prefix.take(2 * k + np.signbit(x)) | lead_char << t.lead_shift.take(k)
                 | t.point_at_7.take(k) * (kept > 1))
    out[:, 1] = (groups.take(g0) | groups.take(g1) << np.uint64(32)) & t.keep[1].take(kept)
    out[:, 2] = (groups.take(g2) | groups.take(g3) << np.uint64(32)) & t.keep[2].take(kept)
    out[:, 3] = t.exponent.take(k)
    wide = np.flatnonzero(point >= 2)
    if wide.size:
        # Digits 1 to point - 1 one byte down, and the point after them.
        places, with_point = point[wide], kept[wide] > point[wide]
        w = out[wide, :3]
        down = [w[:, 0] >> np.uint64(8) | w[:, 1] << np.uint64(56),
                w[:, 1] >> np.uint64(8) | w[:, 2] << np.uint64(56), w[:, 2] >> np.uint64(8)]
        for i in range(3):
            w[:, i] = (w[:, i] & (t.below_7[i] | t.stays[i].take(places)) | down[i] & t.moved[i].take(places)
                       | t.dot[i].take(places) * with_point)
        out[wide, :3] = w
    if deferred.size:
        text = ("%-24.17g" * deferred.size) % tuple(x[deferred].tolist())
        chars = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 24)
        out[deferred] = [0, 0, 0, t.exponent[0]]
        out.view(np.uint8).reshape(-1, 32)[deferred, 1:25] = np.where(chars == 32, 0, chars)
    return out, deferred


def _fields(values: np.ndarray) -> np.ndarray:
    """(rows, cols, WIDTH) bytes of the padded fields of the 2-D float array ``values``."""
    rows, cols = values.shape
    return _words(values.ravel())[0].view(np.uint8).reshape(rows, cols, 32)[..., 1 : WIDTH + 1]


def lead_fields(values) -> np.ndarray:
    """Each float of the 1-D ``values`` and a comma: a row of ``(n, width)`` bytes.

    The text of each row starts at its first byte and ends in NUL bytes up to
    ``width``, the longest text's length, so that :func:`csv_chunks` drops them.
    The rows are filled in one array of the longest possible text's width,
    of which this is a view.
    """
    values = np.ascontiguousarray(values, dtype=float).ravel()
    out = np.zeros((values.size, _LONGEST), np.uint8)
    width = 0
    for start in range(0, values.size, CHUNK_VALUES):
        # A field's 32 bytes, its text and NULs: masked contiguous, not as
        # the strided 29-byte view of _fields, which numpy copies slowly.
        words = _words(values[start : start + CHUNK_VALUES])[0].view(np.uint8)
        filled = words != 0
        lengths = filled.sum(axis=1)
        width = max(width, lengths.max())
        out[start : start + lengths.size][np.arange(_LONGEST) < lengths[:, None]] = words[filled]
    return out[:, :width]


def _rows(leads, strides, rows: range, values: np.ndarray) -> bytes:
    """The CSV rows of the grid rows ``rows``, ``values`` a 2-D float array of their values.

    ``leads`` are the fields of the grid's axes and ``strides`` the rows from
    one point of each axis to the next.  Where the rows share one point of an
    axis, or run through consecutive points, its fields are copied from a
    view; else they are picked row by row.
    """
    cols = values.shape[1]
    start = sum(lead.shape[1] for lead in leads)
    block = np.empty((len(rows), start + cols * WIDTH), np.uint8)
    offset = 0
    for lead, stride in zip(leads, strides):
        n, width = lead.shape
        low, high = rows[0] // stride, rows[-1] // stride
        run = low // n == high // n and (low == high or stride == 1)
        index = slice(low % n, high % n + 1) if run else np.arange(rows.start, rows.stop) // stride % n
        block[:, offset : offset + width] = lead[index]
        offset += width
    block[:, start:].reshape(len(rows), cols, WIDTH)[...] = _fields(values)
    block[:, -1] = _NEWLINE
    flat = block.ravel()
    return flat[flat != 0].tobytes()


def csv_chunks(leads, blocks):
    """The CSV rows of a grid, ``blocks`` the 2-D float arrays of its rows' values in turn.

    ``leads`` are the :func:`lead_fields` of the 1-D axes of the grid, whose
    points, in C order, are the rows.  A row's text is its point's leading
    fields, then ``'%.17g' % value`` for each value, joined by commas and
    ended by a newline; blocks need not line up with the axes.  Yields the
    bytes of about :data:`CHUNK_VALUES` values' rows at a time, each chunk's
    leading fields picked as it is formatted, and at least one chunk per
    block of rows.  A block of fewer values is a chunk of its own, so a
    producer of blocks sizes them to whole chunks.
    """
    strides = [np.prod([len(lead) for lead in leads[k + 1 :]], dtype=int) for k in range(len(leads))]
    first = 0
    for values in blocks:
        step = max(1, CHUNK_VALUES // max(values.shape[1], 1))
        for start in range(0, len(values), step):
            chunk = values[start : start + step]
            yield _rows(leads, strides, range(first + start, first + start + len(chunk)), chunk)
        first += len(values)
