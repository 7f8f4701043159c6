"""The numpy formatter of the CSV writer matches Python's '%.16e' byte for byte.

Each value takes one of three paths: the exact Dekker product where 10**q
is a double (1e-6 <= |x| < 1e17), the double-double product with its
near-tie guard (the rest of [1e-280, 1e280)), and '%' one value at a time
(infinities, subnormals, |x| outside that range, guarded near-ties).  The
values below sit on and next to the edges of each path.
"""

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracasym._csvformat import format_rows

EDGES = [1e-6, 1e17, 1e22, 1e23, 1e-280, 1e280, 1e-281, 1e281, 2.0 ** 53, 2.0 ** -1022,
         1e-7, 1e-22, 1e-23, 1e-100, 1e100, 1e-99, 1e99, 10.0 ** -16, 1.0]

# Values below 1e-6 within 3e-17 of a rounding tie at 17 digits, found by
# solving m * 5**q = 2**(s-1) + t (mod 2**s) for small t: the double-double
# product alone, without the near-tie guard, rounds each of them the wrong way.
NEAR_TIES = [1.1959468262253353e-13, 5.461290097345301e-13, 5.979734131126677e-13,
             1.1959468262253353e-12, 6.83280278535067e-12, 7.518559129353354e-12,
             6.83280278535067e-11, 1.2568395420297045e-10, 2.460469286850939e-10,
             4.974148370910348e-10, 7.594247049386696e-10, 9.895086944612226e-10,
             4.8677287764934085e-09, 4.910296614260184e-09, 4.95286445202696e-09,
             4.974148370910348e-09, 5.016716208677124e-09, 5.0592840464439e-09,
             4.9102966142601843e-08]


def _reference(block: np.ndarray) -> bytes:
    return "".join(",".join("%.16e" % v for v in row) + "\n"
                   for row in block.tolist()).encode()


def _assert_formats(values, cols=6):
    values = np.asarray(values, dtype=np.float64)
    block = values[:values.size // cols * cols].reshape(-1, cols)
    got, want = format_rows(block), _reference(block)
    if got != want:  # name the first values that differ, not two huge strings
        pairs = zip(got.decode().replace("\n", ",").split(","),
                    want.decode().replace("\n", ",").split(","))
        assert [p for p in pairs if p[0] != p[1]][:5] == []
    assert got == want


def _neighbours(values, steps=3):
    """values and their `steps` float neighbours on either side, both signs."""
    out = []
    for v in values:
        lo = hi = v
        out.append(v)
        for _ in range(steps):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return out + [-v for v in out]


def test_random_bit_patterns():
    bits = np.random.default_rng(0).integers(0, 2 ** 64, size=60000, dtype=np.uint64)
    _assert_formats(bits.view(np.float64))


def test_dyadic_ties_of_a_tau_column():
    # 400 i / 2**20 ends in a 5 at the 18th digit for many i: ties, rounded half even
    _assert_formats(400.0 * np.arange(2 ** 16) / 2 ** 20)
    _assert_formats(400.0 * np.arange(2 ** 20 - 2 ** 16, 2 ** 20 + 2) / 2 ** 20)


def test_powers_of_two_and_small_dyadic_values():
    # 2**e is a decimal tie at 17 digits for many e, in every region
    _assert_formats(np.ldexp(1.0, np.arange(-1074, 1024)), cols=1)
    m = np.arange(1, 64, dtype=np.float64)
    _assert_formats(np.ldexp(m[None, :], np.arange(-300, 300)[:, None]).ravel())


def test_neighbours_of_powers_of_ten():
    powers = [float(f"1e{p}") for p in range(-323, 309)]
    _assert_formats(_neighbours(powers), cols=4)


def test_edges_of_the_exact_range_and_of_the_double_double_range():
    _assert_formats(_neighbours(EDGES, steps=5), cols=3)


def test_near_ties_and_exact_ties_of_the_double_double_range():
    exact_ties = [m * 2.0 ** -24 for m in range(3, 16, 2)] + [2.0 ** -25, 3 * 2.0 ** -25]
    _assert_formats(NEAR_TIES + exact_ties + [-v for v in NEAR_TIES + exact_ties], cols=1)


def test_special_values_subnormals_and_the_extremes():
    _assert_formats([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                     2.2250738585072009e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e-300, 1e300, 123.0, -0.5, 3e-320], cols=8)


def test_values_spread_over_every_exponent():
    rng = np.random.default_rng(1)
    values = np.exp(rng.normal(0.0, 150.0, 60000)) * rng.choice([-1.0, 1.0], 60000)
    _assert_formats(values)


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_values = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_from_bits),
    st.integers(0, 2 ** 20).map(lambda i: 400.0 * i / 2 ** 20),
    st.builds(lambda p, s: float(f"1e{p}") * (1.0 + s * 2.0 ** -52),
              st.integers(-323, 308), st.integers(-4, 4)),
    st.builds(lambda e, s: math.nextafter(e, math.inf if s > 0 else 0.0) if s else e,
              st.sampled_from(EDGES), st.integers(-1, 1)),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(_values, min_size=1, max_size=40), st.integers(1, 7))
@example([2.0 ** -25, 1e-280, 1e280, 9.9999999999999996e-281, 1e17, NEAR_TIES[0]], 1)
def test_format_rows_matches_percent_format(values, cols):
    block = np.array(values * cols, dtype=np.float64).reshape(len(values), cols)
    assert format_rows(block) == _reference(block)
