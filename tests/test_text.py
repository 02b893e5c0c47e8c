"""The float text kernel of grid's csv and json against Python's own
``'%.17g' % x`` and ``repr(x)``."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawave import _text


def texts(rows):
    return [bytes(row).replace(b"\0", b"").decode() for row in rows]


def check(values):
    v = np.array(values, dtype=np.float64)
    assert texts(_text.g17(v)) == ["%.17g" % x for x in v.tolist()]
    assert texts(_text.shortest(v)) == [repr(x) for x in v.tolist()]


def from_bits(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


# every bit pattern alike, so every binade alike, subnormals and zeros
# included; and the fixed-notation ranges, which the kernel formats itself
ANY = st.integers(0, 2 ** 64 - 1).map(from_bits).filter(math.isfinite)
FIXED = st.floats(1e-5, 1e18) | st.floats(-1e18, -1e-5)


class TestRenderers:
    @given(st.lists(ANY | FIXED, min_size=1, max_size=64))
    @settings(max_examples=400, deadline=None)
    def test_match_python(self, values):
        check(values)

    def test_every_binade(self):
        rng = np.random.default_rng(30)
        mantissas = [0, 2 ** 52 - 1, *rng.integers(1, 2 ** 52 - 1, 3)]
        values = [from_bits(int(e) << 52 | int(m) | sign << 63)
                  for e in range(2047) for m in mantissas for sign in (0, 1)]
        check([x for x in values if math.isfinite(x)])

    def test_powers_of_two(self):
        # their lower neighbour is half as far: repr(2**-44) is the upward
        # 16-digit neighbour 5.684341886080802e-14
        check([s * 2.0 ** k for k in range(-70, 71) for s in (1, -1)])

    def test_exact_ties(self):
        # %.17g: the 18th digit is an exact 5, rounded half to even
        values = [1 + 2 ** -17, 3 * 2 ** -24, 1 + 3 * 2 ** -17]
        # repr: the 17th digit is an exact 5 and both 16-digit neighbours
        # read back as v, so repr takes the even one (8.000045776367188)
        values += [8 + k / 2 ** 16 for k in range(1, 40, 2)]
        values += [64 + k / 2 ** 15 for k in range(1, 40, 2)]
        check(values + [-x for x in values])

    def test_powers_of_ten_and_neighbours(self):
        # below some 10**k (1e-14, 1e-7, 1e-6 among them) the 17-digit or
        # 16-digit rounding reaches 10**k and the notation changes
        values = []
        for k in range(-25, 26):
            x = float(f"1e{k}")
            values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
        check(values + [-x for x in values])

    @pytest.mark.parametrize("way", [-math.inf, math.inf])
    def test_exponent_exact_under_inexact_log10(self, monkeypatch, way):
        # E is np.log10 corrected by exact comparisons, so a log10 one ulp
        # off at a power of ten, as a vectorised libm may be, changes no text
        log10 = np.log10
        monkeypatch.setattr(np, "log10",
                            lambda a: np.nextafter(log10(a), way))
        values = []
        for k in range(-4, 18):
            x = float(f"1e{k}")
            values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
        check(values)

    def test_table_powers_of_ten_round_up(self):
        # the exponent's exact comparisons need each double nearest 10**k
        # to be no smaller than 10**k
        for k, x in zip(range(-4, 21), _text._tables()[0].tolist()):
            assert x == float(Fraction(10) ** k) and Fraction(x) >= 10 ** k

    def test_fixed_notation_edges(self):
        check([1e-4, 1e-5, math.nextafter(1e-4, 0.0), 1e16, 1e17,
               math.nextafter(1e16, 0.0), math.nextafter(1e17, 0.0),
               0.0, -0.0, 5e-324, 1.7976931348623157e308,
               math.inf, -math.inf, math.nan])

    def test_python_formats_few_values(self, monkeypatch):
        # the kernel, not Python's fallback, formats the bulk of the values
        seen = []
        fallback = _text._fallback

        def counted(rows, v, bad, fmt):
            seen.append(int(np.count_nonzero(bad)))
            return fallback(rows, v, bad, fmt)

        monkeypatch.setattr(_text, "_fallback", counted)
        check(np.random.default_rng(1).normal(0.0, 20.0, 10000))
        # here none for %.17g, and 47 for repr (14 digits or fewer, about
        # 1 in 200)
        assert seen[0] < 10 and seen[1] < 200
