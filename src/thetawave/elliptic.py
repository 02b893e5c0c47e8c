"""Legendre elliptic integrals and the seven curve integrals.

The genus-2 spectral curve of this package is determined by a real shift
``lambda0`` and three imaginary parts ``0 < a < b < c`` of its branch points.
All of its period data reduces to seven real definite integrals over the two
elliptic quotient curves.  Each integral is evaluated twice: by
singularity-removing tanh-sinh quadrature of its defining form, and through
an independent closed Legendre reduction (for the final constant ``f_minus``,
which has no closed Legendre form, an algebraically rationalized finite
reformulation integrated by Gauss rules).  The Legendre integrals are
Carlson's R_F and R_J, computed here by duplication (Carlson, Numer.
Algorithms 10, 1995) from arguments formed without cancellation.  A
disagreement between the two routes beyond 1e-8 relative aborts the
computation, since it can only come from a convention bug.  The integrals
depend on (a, b, c) alone, so each curve is evaluated and cross-checked
once and then served from a memo.

Convention: ``legendre_K`` takes the MODULUS ``k`` (not the parameter
``m = k**2``), fixed by requiring the closed forms to reproduce the
quadrature values.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from ._quad import _TOL, tanh_sinh

_CROSS_TOL = 1e-8   # largest relative gap allowed between the two routes

__all__ = [
    "CurveParams",
    "EllipticConstants",
    "legendre_K",
    "curve_integrals",
]


@dataclass(frozen=True)
class CurveParams:
    """Branch-point data of the spectral curve.

    lambda0 is the common real part of the branch points; a, b, c their
    imaginary parts, required to satisfy 0 < a < b < c.
    """

    lambda0: float
    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("lambda0", "a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not math.isfinite(2.0 * self.lambda0 * self.lambda0):
            raise ValueError(f"need 2*lambda0**2 finite in binary64, got "
                             f"lambda0={self.lambda0}")
        a, b, c = self.a, self.b, self.c
        # the tanh-sinh interval lengths of _quad_integrals, formed as there
        if not (0.0 < a < b < c and all(0.0 < g < math.inf for g in (
                a * a, (b - a) * (b + a), (c - b) * (c + b)))):
            raise ValueError(
                f"need 0 < a < b < c with a**2, b**2 - a**2 and c**2 - b**2 "
                f"positive and finite in binary64, got a={a}, b={b}, c={c}"
            )


@dataclass(frozen=True)
class EllipticConstants:
    """The seven definite integrals attached to a curve.

    Scale law under (a, b, c) -> (s*a, s*b, s*c):
    a_plus, b_plus scale as 1/s; a_minus, b_minus, b1_minus as 1/s**2;
    d_minus and f_minus are invariant.
    """

    a_plus: float
    b_plus: float
    a_minus: float
    b_minus: float
    b1_minus: float
    d_minus: float
    f_minus: float


# ---------------------------------------------------------------------------
# Legendre integrals (modulus convention) via Carlson symmetric forms

# Carlson's stopping bounds (3r)**(-1/6) and (r/4)**(-1/6) at r = 1e-17
_Q_RF = 3e-17 ** (-1.0 / 6.0)
_Q_RJ = 2.5e-18 ** (-1.0 / 6.0)


def _rf(x, y, z):
    """R_F(x, y, z) for x, y, z >= 0, at most one of them zero."""
    a0 = an = (x + y + z) / 3.0
    dx, dy = a0 - x, a0 - y
    q = _Q_RF * max(abs(dx), abs(dy), abs(a0 - z))
    f = 1.0
    while f * q >= an:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
        an = (an + lam) / 4.0
        f /= 4.0
    X, Y = dx * f / an, dy * f / an
    e2, e3 = X * Y - (X + Y) ** 2, -X * Y * (X + Y)
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
            - 3.0 * e2 * e3 / 44.0) / math.sqrt(an)


def _rc1(w):
    """R_C(1, w) for w > 0 in the atan/atanh form (the acos form loses half
    the digits as w -> 1); atanh(s) = log1p(2s(1 + s)/w)/2 keeps w -> 0."""
    s = math.sqrt(abs(w - 1.0))
    if w > 1.0:
        return math.atan(s) / s
    if w < 1.0:
        return math.log1p(2.0 * s * (1.0 + s) / w) / (2.0 * s)
    return 1.0


def _rj(x, y, z, p):
    """R_J(x, y, z, p) for x, y, z >= 0, at most one of them zero, p > 0."""
    a0 = an = (x + y + z + 2.0 * p) / 5.0
    dx, dy, dz = a0 - x, a0 - y, a0 - z
    q = _Q_RJ * max(abs(dx), abs(dy), abs(dz), abs(a0 - p))
    f, tail = 1.0, 0.0
    while f * q >= an:
        sx, sy, sz, sp = map(math.sqrt, (x, y, z, p))
        lam = sx * sy + sx * sz + sy * sz
        d = (sp + sx) * (sp + sy) * (sp + sz)
        # Carlson's 1 + e_m = 1 + (p - x)(p - y)(p - z)/d**2 cancels when
        # p is small; expanding the products gives it as 2 sqrt(p)(p + lam)/d
        tail += f / d * _rc1(2.0 * sp * (p + lam) / d)
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
        p = (p + lam) / 4.0
        an = (an + lam) / 4.0
        f /= 4.0
    X, Y, Z = dx * f / an, dy * f / an, dz * f / an
    P = -(X + Y + Z) / 2.0
    e2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    e3 = X * Y * Z + 2.0 * e2 * P + 4.0 * P ** 3
    e4 = (2.0 * X * Y * Z + e2 * P + 3.0 * P ** 3) * P
    e5 = X * Y * Z * P * P
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
              - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return f * series / (an * math.sqrt(an)) + 6.0 * tail


def _K_from_m1(m1):
    """Complete integral of the first kind from the complementary parameter."""
    if m1 <= 0.0:
        raise ValueError("modulus must satisfy k < 1")
    return _rf(0.0, m1, 1.0)


def legendre_K(k):
    """Complete elliptic integral of the first kind, modulus convention."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {k}")
    return _K_from_m1((1.0 - k) * (1.0 + k))


# ---------------------------------------------------------------------------
# direct quadrature of the seven integrals

def _quad_integrals(a, b, c):
    a2, b2, c2 = a * a, b * b, c * c
    # pairwise gaps as products of differences; exact to one rounding even
    # when two branch points nearly coincide
    ba = (b - a) * (b + a)
    ca = (c - a) * (c + a)
    cb = (c - b) * (c + b)

    a_plus = tanh_sinh(lambda u, v: 1.0 / np.sqrt(u * v * (cb + v)), ba)
    b_plus = tanh_sinh(lambda u, v: 1.0 / np.sqrt((ba + u) * u * v), cb)
    a_minus = tanh_sinh(
        lambda u, v: 1.0 / np.sqrt(u * v * (ba + v) * (ca + v)), a2)
    b_minus = tanh_sinh(
        lambda u, v: 1.0 / np.sqrt((a2 + u) * u * v * (cb + v)), ba)
    d_minus = tanh_sinh(
        lambda u, v: 0.5 * np.sqrt(u) / np.sqrt(v * (ba + v) * (ca + v)), a2)

    # the two integrals over (c**2, inf) after the substitution t = c**2/u**2
    alpha = a2 / c2
    beta = b2 / c2

    def gaps(u, v):
        # 1 - alpha*u**2 and 1 - beta*u**2 without cancellation at u -> 1
        one_m_au2 = v * (1.0 + u) + u * u * (ca / c2)
        one_m_bu2 = v * (1.0 + u) + u * u * (cb / c2)
        return one_m_au2, one_m_bu2

    def f_b1(u, v):
        one_m_au2, one_m_bu2 = gaps(u, v)
        return (2.0 / c2) * u / np.sqrt(one_m_au2 * one_m_bu2 * v * (1.0 + u))

    b1_minus = tanh_sinh(f_b1, 1.0)

    s1p = 1.0 + alpha + beta
    s2p = alpha + beta + alpha * beta
    s3p = alpha * beta

    def f_fm(u, v):
        one_m_au2, one_m_bu2 = gaps(u, v)
        root = np.sqrt(one_m_au2 * one_m_bu2 * v * (1.0 + u))
        u2 = u * u
        return u * (s1p - s2p * u2 + s3p * u2 * u2) / (root * (1.0 + root))

    f_minus = tanh_sinh(f_fm, 1.0)

    return EllipticConstants(a_plus, b_plus, a_minus, b_minus, b1_minus,
                             d_minus, f_minus)


# ---------------------------------------------------------------------------
# closed Legendre route (and the rationalized Gauss route for f_minus)

def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(n):
    """The n-point Gauss-Legendre nodes (ascending) and weights by Newton's
    method on the recurrence (Hale and Townsend, SIAM J. Sci. Comput. 35,
    2013) from Tricomi's starting values on the nonnegative half, then
    mirrored: elementwise numpy, no eigenproblem.  The weights
    2/((1 - x**2) P_n'(x)**2) are evaluated at the converged nodes."""
    k = np.arange(1, (n + 1) // 2 + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    step = 1.0
    while np.max(np.abs(step)) > 1e-16:
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    # x descends from the node nearest 1; for odd n its last node is 0
    half = n // 2
    return (np.concatenate([-x, x[:half][::-1]]),
            np.concatenate([w, w[:half][::-1]]))


@functools.lru_cache(maxsize=None)
def _gauss_rule(n):
    """Read-only n-point Gauss-Legendre rule, built on first use."""
    rule = np.array(_gauss_legendre(n))
    rule.setflags(write=False)
    return rule


def _f_minus_gauss(a, b, c):
    """Second, quadrature-independent route to the tail integral f_minus.

    After t = c**2/v**2 the integral becomes
        int_0^1 P(v) / (sqrt(R) * (1 + sqrt(R))) dv,
    R(v) = (1 - v**2)(1 - alpha v**2)(1 - beta v**2),
    P(v) = v*(s1 - s2 v**2 + s3 v**4).
    The further substitution v = 1 - s**2 turns sqrt(R) into s*g(s) with g
    smooth and positive, leaving the analytic integrand
        2 P(1 - s**2) / (g(s) * (1 + s*g(s)))
    on (0, 1), which Gauss-Legendre handles at spectral accuracy.  Node
    counts double, up to 4096, until the result is stable.
    """
    a2, b2, c2 = a * a, b * b, c * c
    alpha, beta = a2 / c2, b2 / c2
    ca = (c - a) * (c + a)
    cb = (c - b) * (c + b)
    s1p = 1.0 + alpha + beta
    s2p = alpha + beta + alpha * beta
    s3p = alpha * beta

    def integrand(s):
        v = 1.0 - s * s
        v2 = v * v
        pv = v * (s1p - s2p * v2 + s3p * v2 * v2)
        one_m_v = s * s
        one_m_av2 = one_m_v * (1.0 + v) + v2 * (ca / c2)
        one_m_bv2 = one_m_v * (1.0 + v) + v2 * (cb / c2)
        g = np.sqrt((1.0 + v) * one_m_av2 * one_m_bv2)
        return 2.0 * pv / (g * (1.0 + s * g))

    # 1/g varies on the scale s ~ sqrt(1 - beta) near s = 0, so the panels
    # are graded dyadically toward that endpoint
    layer = math.sqrt(max(1.0 - beta, 1e-30) / 2.0)
    depth = min(60, max(4, int(math.ceil(-math.log2(layer))) + 2))
    edges = np.array([0.0] + [2.0 ** (-j) for j in range(depth, -1, -1)])
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)

    prev = None
    n = 24
    while n <= 4096:
        xg, wg = _gauss_rule(n)
        # one integrand call for all panels, one row each, summed in order
        rows = wg * integrand(lo + half * (xg + 1.0))
        value = 0.0
        for h, row in zip(half[:, 0].tolist(), rows):
            value += h * float(np.sum(row))
        # the integrand is positive, so |value| is its size (see tanh_sinh)
        if prev is not None and abs(value - prev) <= _TOL * abs(value):
            return value
        prev = value
        n *= 2
    raise RuntimeError("f_minus Gauss route did not stabilize")


def _closed_integrals(a, b, c):
    a2, b2, c2 = a * a, b * b, c * c
    ba = (b - a) * (b + a)
    ca = (c - a) * (c + a)
    cb = (c - b) * (c + b)
    rca = math.sqrt(ca)

    # complementary parameters written as exact ratios so that moduli close
    # to 1 (nearly degenerate curves) lose no precision
    a_plus = 2.0 * _K_from_m1(cb / ca) / rca
    b_plus = 2.0 * _K_from_m1(ba / ca) / rca
    a_minus = 2.0 * _K_from_m1(c2 * ba / (b2 * ca)) / (b * rca)
    b_minus = 2.0 * _K_from_m1(a2 * cb / (b2 * ca)) / (b * rca)
    # F(asin(b/c) | m) with 1 - (b/c)**2 = cb/c2 and 1 - m (b/c)**2 = cb/ca
    b1_minus = 2.0 * _rf(cb / c2, cb / ca, 1.0) / (c * rca)
    # K(k) - Pi(n, k) collapses to a single Carlson R_J term, avoiding the
    # cancellation that would otherwise dominate for small a
    k_am1 = c2 * ba / (b2 * ca)  # complement of the a_minus modulus
    n_char = a2 / (a2 - c2)
    d_minus = c2 * (-n_char / 3.0 * _rj(0.0, k_am1, 1.0, 1.0 - n_char)) \
        / (b * rca)
    f_minus = _f_minus_gauss(a, b, c)

    return EllipticConstants(a_plus, b_plus, a_minus, b_minus, b1_minus,
                             d_minus, f_minus)


def curve_integrals(params: CurveParams):
    """Evaluate the seven integrals for ``params`` (lambda0 plays no role).

    Both evaluation routes must agree within 1e-8 relative on every
    integral; the quadrature values are returned.
    """
    return _checked_integrals(params.a, params.b, params.c)


@contextlib.contextmanager
def _naming_curve(a, b, c):
    """Prefix a RuntimeError raised inside with the curve it arose on: a
    quadrature message alone does not say which input failed."""
    try:
        yield
    except RuntimeError as exc:
        # the same exception, so its traceback still reaches the quadrature
        exc.args = (f"curve a={a}, b={b}, c={c}: {exc}",)
        raise


@functools.lru_cache(maxsize=256)
def _checked_integrals(a, b, c):
    with _naming_curve(a, b, c):
        quad = _quad_integrals(a, b, c)
        closed = _closed_integrals(a, b, c)
        for name in (f.name for f in fields(quad)):
            q, cf = getattr(quad, name), getattr(closed, name)
            rel = abs(q - cf) / max(abs(q), abs(cf))
            if rel > _CROSS_TOL:
                raise RuntimeError(
                    f"integral {name}: quadrature {float(q)!r} and closed "
                    f"form {float(cf)!r} disagree by {rel:.3e} relative"
                )
    return quad
