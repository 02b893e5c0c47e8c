"""The fixed quadrature rules are tabulated once per process: tanh-sinh's
node tables (``_quad._nodes``: one block of levels 0 to _BLOCK_LEVEL, then
one table per later level) and the Gauss-Legendre rules of the f_minus route.
Tabulating must not change a bit of any result, nor any error."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from thetawave import _quad, elliptic
from thetawave._quad import _BLOCK_LEVEL, _MAX_LEVEL, _T_MAX, _TOL, tanh_sinh


def _built(level):
    """The nodes that ``level`` adds, built anew, past the cache: every
    multiple of h = 1 at level 0, after it the odd multiples of 2**-level."""
    return _quad._nodes.__wrapped__(level, level > 0)


def _uncached(f, length):
    """tanh_sinh with every level's nodes built anew and evaluated on their
    own; returns the value and the level it stopped at."""
    def evaluate(level):
        u, v, w = _built(level)
        vals = f(u * length, v * length) * (w * length)
        return vals.sum(), np.abs(vals).sum()

    h = 1.0
    with np.errstate(all="ignore"):
        total, size = evaluate(0)
        prev = h * total
        for level in range(1, _MAX_LEVEL + 1):
            h *= 0.5
            new, new_size = evaluate(level)
            total += new
            size += new_size
            value = h * total
            if abs(value - prev) <= _TOL * max(abs(value), h * size):
                return value, level
            prev = value
    raise AssertionError("reference loop did not converge")


# name -> (integrand, length, the level it stops at); levels 0 to
# _BLOCK_LEVEL come from one integrand call, the later ones one call each
INTEGRANDS = {
    "endpoint_singular": (lambda u, v: 1.0 / np.sqrt(u * v), 2.5, 3),
    "endpoint_root": (lambda u, v: np.sqrt(u), 1.0, 3),
    "complex": (lambda u, v: np.exp(1j * u) / np.sqrt(u), 1.7, 4),
    "decay": (lambda u, v: np.exp(-u), 1.0, 4),
    "mixed_sign": (lambda u, v: np.cos(7.0 * u), 3.0, 5),
    "wide_peak": (lambda u, v: 1.0 / (u * u + 0.1), 1.0, 5),
    "narrow_peak": (lambda u, v: 1.0 / (u * u + 1e-4), 1.0, 6),
}


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_bit_identical_to_uncached_loop(name):
    f, length, stop_level = INTEGRANDS[name]
    want, level = _uncached(f, length)
    assert level == stop_level
    # once possibly building the tables, once reading them
    for _ in range(2):
        got = tanh_sinh(f, length)
        assert type(got) is type(want)
        assert got.tobytes() == want.tobytes()


def test_each_level_built_once():
    _quad._nodes.cache_clear()
    # levels 0 to _BLOCK_LEVEL come from the one block
    tanh_sinh(INTEGRANDS["endpoint_root"][0], 1.0)
    info = _quad._nodes.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    # the first call builds levels 5 and 6; the second stops at level 5 and
    # reads it, with the block, from the cache
    f = INTEGRANDS["narrow_peak"][0]
    tanh_sinh(f, 1.0)
    tanh_sinh(f, 0.3)
    info = _quad._nodes.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 3, 3)
    # the three tables built are the block of 193 nodes and the 192 and 384
    # that levels 5 and 6 add
    keys = [(_BLOCK_LEVEL, False), (5, True), (6, True)]
    assert [_quad._nodes(*key).shape for key in keys] \
        == [(3, 193), (3, 192), (3, 384)]
    assert _quad._nodes.cache_info().misses == 3


def test_block_slices_are_the_levels_it_holds():
    block = _quad._nodes(_BLOCK_LEVEL, False)
    assert block[:, ::16].tobytes() == _built(0).tobytes()
    for level in range(1, _BLOCK_LEVEL + 1):
        s = 1 << (_BLOCK_LEVEL - level)
        assert block[:, s::2 * s].tobytes() == _built(level).tobytes()


def _libm_node(t):
    """(u_frac, v_frac, weight_factor) at the abscissa t, in Python floats
    with math's sinh, exp and cosh."""
    z = 0.5 * math.pi * math.sinh(t)
    ez = math.exp(-2.0 * abs(z))
    d = 1.0 + ez
    near, far = ez / d, 1.0 / d
    u, v = (far, near) if z > 0.0 else (near, far)
    return u, v, math.pi * math.cosh(t) * ez / (d * d)


@pytest.mark.parametrize("level", range(11))
def test_nodes_are_libm_per_abscissa(level):
    # the same bits whatever numpy's SIMD dispatch
    kmax = int(_T_MAX * 2 ** level)
    ks = range(-kmax, kmax + 1) if level == 0 else range(1 - kmax, kmax, 2)
    want = np.array([_libm_node(k / 2 ** level) for k in ks]).T
    assert _built(level).tobytes() == want.tobytes()


def test_tables_not_built_at_import(python):
    probe = ("import thetawave\n"
             "from thetawave import _quad, elliptic\n"
             "print(_quad._nodes.cache_info().currsize,"
             " elliptic._gauss_rule.cache_info().currsize)\n")
    res = python.run("-c", probe)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "0"]


def test_cached_tables_are_read_only():
    tanh_sinh(INTEGRANDS["mixed_sign"][0], 1.0)
    elliptic._f_minus_gauss(6.0, 8.0, 9.0)
    for table in (*_quad._nodes(_BLOCK_LEVEL, False), *_quad._nodes(5, True),
                  *elliptic._gauss_rule(24)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5


def _nan_at(level, g, length):
    """g, but NaN at the nodes (u, v) that ``level`` adds on (0, length):
    every multiple of h = 1 at level 0, after it the odd multiples of
    h = 2**-level."""
    u, v, _ = _built(level)
    marked = set(zip(u * length, v * length))

    def f(u, v):
        return np.where([node in marked for node in zip(u, v)], np.nan,
                        g(u, v))
    return f


def test_nan_at_a_level_never_reached():
    # level 4 is evaluated along with levels 0 to 3, but the loop stops at 3
    f = _nan_at(4, INTEGRANDS["endpoint_root"][0], 1.0)
    want, level = _uncached(f, 1.0)
    assert level == 3
    assert tanh_sinh(f, 1.0).tobytes() == want.tobytes()


class TestErrorsUnchanged:
    @pytest.mark.parametrize("length", [0.0, np.nan, np.inf])
    def test_bad_length(self, length):
        with pytest.raises(ValueError,
                           match=f"^interval length must be positive, "
                                 f"got {length}$"):
            tanh_sinh(INTEGRANDS["mixed_sign"][0], length)

    def test_non_finite_values(self):
        with pytest.raises(RuntimeError,
                           match="^non-finite integrand values in tanh_sinh$"):
            tanh_sinh(lambda u, v: 1.0 / (u - u), 1.0)

    def test_nan_at_level_0(self):
        f = _nan_at(0, INTEGRANDS["endpoint_root"][0], 1.0)
        with pytest.raises(RuntimeError,
                           match="^non-finite integrand values in tanh_sinh$"):
            tanh_sinh(f, 1.0)

    def test_level_budget(self, monkeypatch):
        monkeypatch.setattr(_quad, "_MAX_LEVEL", 2)
        with pytest.raises(RuntimeError,
                           match=r"^tanh_sinh did not converge to 1e-12 "
                                 r"within 2 levels \(last change "):
            tanh_sinh(INTEGRANDS["narrow_peak"][0], 1.0)


# (a, b, c): the reference curve, a -> 0, and c - b = 1e-6 (deep panels)
GAUSS_CURVES = [(6.0, 8.0, 9.0), (0.001, 8.0, 9.0), (6.0, 8.0, 8.000001)]


def test_gauss_rules_built_once_and_bit_identical(monkeypatch):
    built = []

    def counted(n):
        built.append(n)
        return leggauss(n)

    monkeypatch.setattr(elliptic, "leggauss", counted)
    elliptic._gauss_rule.cache_clear()
    cached = [elliptic._f_minus_gauss(*abc) for abc in GAUSS_CURVES]
    assert len(built) == len(set(built))
    # a fresh rule for every read, as before the rules were cached
    monkeypatch.setattr(elliptic, "_gauss_rule", leggauss)
    fresh = [elliptic._f_minus_gauss(*abc) for abc in GAUSS_CURVES]
    assert [np.float64(x).tobytes() for x in cached] \
        == [np.float64(x).tobytes() for x in fresh]
