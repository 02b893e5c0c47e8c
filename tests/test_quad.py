"""The fixed quadrature rules are tabulated once per process: tanh-sinh's
per-level node tables and the Gauss-Legendre rules of the f_minus route.
Tabulating must not change a bit of any result, nor any error."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from thetawave import _quad, elliptic
from thetawave._quad import _MAX_LEVEL, _T_MAX, _TOL, tanh_sinh

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _uncached(f, length):
    """tanh_sinh with every level's nodes rebuilt from their abscissas;
    returns the value and the level it stopped at."""
    def evaluate(t):
        u, v, w = _quad._nodes(t)
        vals = f(u * length, v * length) * (w * length)
        return vals.sum(), np.abs(vals).sum()

    h = 1.0
    with np.errstate(all="ignore"):
        total, size = evaluate(h * np.arange(-int(_T_MAX / h),
                                             int(_T_MAX / h) + 1))
        prev = h * total
        for level in range(1, _MAX_LEVEL + 1):
            h *= 0.5
            kmax = int(_T_MAX / h)
            if kmax % 2 == 0:
                kmax -= 1
            new, new_size = evaluate(h * np.arange(-kmax, kmax + 1, 2))
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


def test_each_level_built_once(monkeypatch):
    built = []
    nodes = _quad._nodes

    def counted(t):
        built.append(t.size)    # the size tells the levels apart
        return nodes(t)

    monkeypatch.setattr(_quad, "_nodes", counted)
    _quad._level.cache_clear()
    _quad._block.cache_clear()
    f = INTEGRANDS["narrow_peak"][0]
    tanh_sinh(f, 1.0)
    tanh_sinh(f, 0.3)
    levels = _quad._level.cache_info().currsize
    assert len(built) == len(set(built)) == levels >= 7


def test_tables_not_built_at_import():
    probe = ("import thetawave\n"
             "from thetawave import _quad, elliptic\n"
             "print(_quad._level.cache_info().currsize,"
             " _quad._block.cache_info().currsize,"
             " elliptic._gauss_rule.cache_info().currsize)\n")
    res = subprocess.run([sys.executable, "-c", probe],
                         env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "0", "0"]


def test_cached_tables_are_read_only():
    tanh_sinh(INTEGRANDS["mixed_sign"][0], 1.0)
    elliptic._f_minus_gauss(6.0, 8.0, 9.0)
    for table in (*_quad._level(0), *_quad._level(1), *_quad._block()[0],
                  *elliptic._gauss_rule(24)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5


def _nan_at(level, g, length):
    """g, but NaN at the nodes (u, v) that ``level`` adds on (0, length)."""
    u, v, _ = _quad._level(level)
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
