"""Exact ``'%.16e'`` formatting of float64 tables in numpy.

``format_rows(block)`` returns the bytes of the rows of a 2-D float64 array,
each value written as ``'%.16e' % value``, the values of a row joined by
``,`` and each row ended by a newline, with no Python call per value.

A finite value a = |x| is written as the 17 significant digits
M = round(a * 10**q), q = 16 - k, rounded half to even as Python's
correctly rounded formatting rounds, where k is the exponent of the
rounded value:

* k starts at floor(log10 a) and moves by one where M >= 10**17 or where
  a * 10**q < 10**16 - 0.05 (so that 10 a * 10**q rounds below 10**17),
  which log10 can cause next to a power of ten;
* th + tl is 10**q to about 106 bits (tl = 0 for 0 <= q <= 22, where
  10**q is a double), and hi + lo = a * th exactly, by Dekker's
  two-product on a Veltkamp split;
* hi is at least 2**53, so it is an even integer and
  M = hi + rint(lo + a * tl) rounds a tie half to even;
* for 0 <= q <= 22 this is exact.  For other q the error of lo + a * tl
  is below 1e-14, and a value within 1e-9 of a rounding tie is formatted
  by ``%`` instead, as is one within 1e-9 of the edge 10**16 - 0.05.

Zeros and NaN are written through the same fields; infinities, subnormals
and |x| outside [1e-280, 1e280) are formatted by ``%`` one value at a time.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["format_rows"]

_LO, _HI = 1e-280, 1e280  # the |x| of the vectorized path
# the decimal exponents k of the tables: the estimate for |x| in [_LO, _HI)
# and its correction lie inside, and 10**(16 - k) <= 1e300 splits without
# overflow
_K_MIN, _K_MAX = -284, 283
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_TIE_GUARD = 1e-9
_M_MIN, _M_MAX = 10 ** 16, 10 ** 17

# A value's field is 7 uint32 words (28 bytes), and its zero bytes are
# dropped at the end: [sign, 0, lead digit, "."], four words of 4 digits,
# ["e", exponent sign, 2 exponent digits], [third exponent digit or 0,
# separator, 0, 0].


class _Tables(NamedTuple):
    digits: np.ndarray  # the 4 digits of 0..9999, one word each
    lead: np.ndarray  # word 0 for sign * 10 + lead digit
    expo: np.ndarray  # word 5 for k - _K_MIN
    expo3: np.ndarray  # word 6 (no separator) for k - _K_MIN
    th: np.ndarray  # 10**(16 - k) as th + tl, for k - _K_MIN
    th_hi: np.ndarray  # the Veltkamp halves of th
    th_lo: np.ndarray
    tl: np.ndarray
    nan: np.ndarray  # the 7 words of "nan", no separator
    comma: np.uint32  # word 6 of a ","
    newline: np.uint32  # word 6 of a "\n"


def _words(fields: list[bytes], width: int) -> np.ndarray:
    raw = b"".join(f.ljust(width, b"\0") for f in fields)
    return np.frombuffer(raw, np.uint32).reshape(len(fields), width // 4)


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _tables() -> _Tables:
    # built on the first call, not at import
    ks = range(_K_MIN, _K_MAX + 1)
    th, tl = [], []
    for k in ks:  # 10**(16 - k) = num / den; int / int rounds correctly
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        head = num / den
        head_num, head_den = head.as_integer_ratio()
        th.append(head)
        tl.append((num * head_den - head_num * den) / (den * head_den))
    th = np.array(th)
    th_hi, th_lo = _split(th)
    expo = _words([b"e%+03d" % k for k in ks], 8)
    d = np.arange(10000)
    digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1)
    return _Tables(
        digits=(digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        lead=_words([b"%s\0%d." % (sign, i) for sign in (b"\0", b"-") for i in range(10)],
                    4).ravel(),
        expo=expo[:, 0].copy(), expo3=expo[:, 1].copy(),
        th=th, th_hi=th_hi, th_lo=th_lo, tl=np.array(tl),
        nan=_words([b"nan"], 28).ravel(),
        comma=_words([b"\0,"], 4)[0, 0], newline=_words([b"\0\n"], 4)[0, 0])


def _mantissa(a, i, t: _Tables):
    """M = round(a * 10**(16 - k)) as int64, with i = k - _K_MIN; the
    signed a * 10**(16 - k) - M; and whether that is exact."""
    hi = a * t.th[i]
    a_hi, a_lo = _split(a)
    lo = ((a_hi * t.th_hi[i] - hi) + a_hi * t.th_lo[i] + a_lo * t.th_hi[i]) + a_lo * t.th_lo[i]
    tl = t.tl[i]
    rest = lo + a * tl
    step = np.rint(rest)
    return hi.astype(np.int64) + step.astype(np.int64), rest - step, tl == 0.0


def _exponent_off(m, frac):
    """+1 where the exponent must grow, -1 where it must shrink, else 0."""
    below = (m < _M_MIN) | ((m == _M_MIN) & (frac < -0.05))
    return (m >= _M_MAX).astype(np.int64) - below


def format_rows(block: np.ndarray) -> bytes:
    """The bytes of "".join(",".join("%.16e" % v for v in row) + "\\n"
    for row in block) for a 2-D float64 array."""
    t = _tables()
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= _LO) & (a < _HI)  # False for NaN
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    m, frac, exact = _mantissa(a, k - _K_MIN, t)
    move = _exponent_off(m, frac)
    off = move != 0
    if off.any():
        k[off] += move[off]
        m[off], frac[off], exact[off] = _mantissa(a[off], k[off] - _K_MIN, t)
        off = _exponent_off(m, frac) != 0
    unsure = (~exact & (np.abs(np.abs(frac) - 0.5) < _TIE_GUARD)) | (
        (m == _M_MIN) & (np.abs(frac + 0.05) < _TIE_GUARD))
    zero = x == 0.0
    nan = np.isnan(x)
    per_value = ~(fast | zero | nan) | (fast & (off | unsure))
    m[zero | per_value] = 0  # k is 0 at a zero, from a = 1

    first, tail = np.divmod(m, _M_MIN)
    upper, lower = np.divmod(tail, 10 ** 8)
    words = np.empty((x.size, 7), np.uint32)
    words[:, 0] = t.lead[np.signbit(x) * 10 + first]
    for col, half in ((1, upper), (3, lower)):
        high, low = np.divmod(half.astype(np.int32), 10000)
        words[:, col] = t.digits[high]
        words[:, col + 1] = t.digits[low]
    i = k - _K_MIN
    words[:, 5] = t.expo[i]
    words[:, 6] = t.expo3[i]
    words[nan] = t.nan
    for j in np.flatnonzero(per_value):
        words[j] = _words([b"%.16e" % float(x[j])], 28)
    sep = np.full(cols, t.comma)
    sep[-1] = t.newline
    words.reshape(rows, cols, 7)[:, :, 6] |= sep
    return words.tobytes().translate(None, b"\0")
