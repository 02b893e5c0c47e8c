"""The fixed quadrature rules are tabulated once per process: tanh-sinh's
node tables (``_quad._nodes``: one block of levels 0 to _BLOCK_LEVEL, then
one table per later level) and the Gauss-Legendre rules of the f_minus route.
Tabulating must not change a bit of any result, nor any error."""

import math
from decimal import Decimal

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
    build = elliptic._gauss_legendre

    def counted(n):
        built.append(n)
        return build(n)

    monkeypatch.setattr(elliptic, "_gauss_legendre", counted)
    elliptic._gauss_rule.cache_clear()
    cached = [elliptic._f_minus_gauss(*abc) for abc in GAUSS_CURVES]
    assert len(built) == len(set(built))
    # a fresh rule for every read, as before the rules were cached
    monkeypatch.setattr(elliptic, "_gauss_rule", build)
    fresh = [elliptic._f_minus_gauss(*abc) for abc in GAUSS_CURVES]
    assert [np.float64(x).tobytes() for x in cached] \
        == [np.float64(x).tobytes() for x in fresh]


# (node, weight) of the positive half of the 24- and 48-point rules, to 25
# digits, from mpmath 1.3.0 at mp.dps = 40 (GaussLegendre.calc_nodes at
# degrees 4 and 5), generated offline
GAUSS_REFS = {
    24: [
        ("0.06405689286260562608504308", "0.1279381953467521569740562"),
        ("0.1911188674736163091586398", "0.1258374563468282961213754"),
        ("0.3150426796961633743867933", "0.1216704729278033912044632"),
        ("0.4337935076260451384870842", "0.1155056680537256013533445"),
        ("0.5454214713888395356583756", "0.1074442701159656347825773"),
        ("0.6480936519369755692524958", "0.09761865210411388826988066"),
        ("0.7401241915785543642438281", "0.08619016153195327591718520"),
        ("0.8200019859739029219539499", "0.07334648141108030573403362"),
        ("0.8864155270044010342131543", "0.05929858491543678074636776"),
        ("0.9382745520027327585236490", "0.04427743881741980616860275"),
        ("0.9747285559713094981983920", "0.02853138862893366318130782"),
        ("0.9951872199970213601799974", "0.01234122979998719954680567"),
    ],
    48: [
        ("0.03238017096286936203332224", "0.06473769681268392250302494"),
        ("0.09700469920946269893005396", "0.06446616443595008220650419"),
        ("0.1612223560688917180564374", "0.06392423858464818662390620"),
        ("0.2247637903946890612248654", "0.06311419228625402565712602"),
        ("0.2873624873554555767358865", "0.06203942315989266390419778"),
        ("0.3487558862921607381598179", "0.06070443916589388005296923"),
        ("0.4086864819907167299162255", "0.05911483969839563574647482"),
        ("0.4669029047509584045449289", "0.05727729210040321570515023"),
        ("0.5231609747222330336782259", "0.05519950369998416286820350"),
        ("0.5772247260839727038178092", "0.05289018948519366709550506"),
        ("0.6288673967765136239951649", "0.05035903555385447495780762"),
        ("0.6778723796326639052118513", "0.04761665849249047482590662"),
        ("0.7240341309238146546744822", "0.04467456085669428041944859"),
        ("0.7671590325157403392538554", "0.04154508294346474921405882"),
        ("0.8070662040294426270825530", "0.03824135106583070631721726"),
        ("0.8435882616243935307110898", "0.03477722256477043889254859"),
        ("0.8765720202742478859056936", "0.03116722783279808890206576"),
        ("0.9058791367155696728220748", "0.02742650970835694820007384"),
        ("0.9313866907065543331141744", "0.02357076083932437914051930"),
        ("0.9529877031604308607229607", "0.01961616045735552781446072"),
        ("0.9705915925462472504614120", "0.01557931572294384872817696"),
        ("0.9841245837228268577445836", "0.01147723457923453948959267"),
        ("0.9935301722663507575479288", "0.007327553901276262102383980"),
        ("0.9987710072524261186005415", "0.003153346052305838632677312"),
    ],
}


@pytest.mark.parametrize("n", sorted(GAUSS_REFS))
def test_gauss_rule_against_mpmath(n):
    # worst measured: nodes 5.0e-17 / 6.2e-17, weights 9.9e-15 / 1.7e-14
    # relative at n = 24 / 48 (numpy's leggauss: 1.2e-13 / 1.3e-12)
    x, w = elliptic._gauss_rule(n)
    for i, (node, weight) in enumerate(GAUSS_REFS[n]):
        for j in (n // 2 + i, n // 2 - 1 - i):  # the node and its mirror
            assert abs(Decimal(node) - Decimal(abs(x[j]))) <= Decimal(1e-16)
            assert (abs(Decimal(weight) - Decimal(w[j]))
                    <= Decimal(5e-14) * Decimal(weight))


@pytest.mark.parametrize("n", [24 * 2 ** k for k in range(6)])
def test_gauss_rule_matches_leggauss(n):
    # the doubling loop's rules up to 768; leggauss's own weights drift
    # from the exact ones by up to 8.6e-10 relative at 768
    x, w = elliptic._gauss_rule(n)
    xr, wr = leggauss(n)
    assert np.max(np.abs(x - xr)) <= 2.3e-16
    assert np.max(np.abs(w - wr) / wr) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 5, 24, 4096])
def test_gauss_rule_symmetric_and_weights_sum_to_two(n):
    # 4,096 is the doubling loop's cap
    x, w = elliptic._gauss_rule(n)
    half = n // 2
    assert x.shape == w.shape == (n,) and np.all(np.diff(x) > 0.0)
    assert np.array_equal(x[:half], -x[::-1][:half])
    assert np.array_equal(w, w[::-1])
    assert math.fsum(w) == pytest.approx(2.0, rel=1e-14)
