"""Tanh-sinh (double-exponential) quadrature over a finite interval.

The integrand is supplied as ``f(u, v)`` where ``u`` is the distance of the
node from the lower endpoint and ``v`` the distance from the upper endpoint
(``u + v == length``).  Passing both distances lets callers evaluate factors
like ``sqrt(b2 - t)`` without catastrophic cancellation at either end, which
is what makes inverse-square-root endpoint singularities converge at full
binary64 accuracy.

One integrand call evaluates levels 0 to _BLOCK_LEVEL on one table, every
multiple of 2**-_BLOCK_LEVEL on [-_T_MAX, _T_MAX]: most quadratures stop near
_BLOCK_LEVEL, and on so few nodes an integrand call costs mostly its fixed
overhead.  ``_level`` tabulates each later level, one call each.  Tables are
built once per process, on first use, read-only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["tanh_sinh"]

# |t| beyond ~6 produces node distances below ~1e-276; further nodes only
# risk underflow to exactly zero without contributing anything.
_T_MAX = 6.0
# refinement budget: levels of step halving before RuntimeError
_MAX_LEVEL = 16
# level-to-level tolerance of every quadrature in the package
_TOL = 1e-12
# deepest level that the first integrand call evaluates
_BLOCK_LEVEL = 4


def _nodes(t):
    """Map trapezoid abscissas t to the read-only rows (u_frac, v_frac,
    weight_factor)."""
    z = 0.5 * np.pi * np.sinh(t)
    # logistic distances from the two endpoints, written with exp(-2|z|) so
    # that the short side stays a positive subnormal instead of overflowing
    ez = np.exp(-2.0 * np.abs(z))
    near = ez / (1.0 + ez)
    far = 1.0 / (1.0 + ez)
    pos = z > 0.0
    u = np.where(pos, far, near)
    v = np.where(pos, near, far)
    uvw = np.array([u, v, np.pi * np.cosh(t) * ez / (1.0 + ez) ** 2])
    uvw.setflags(write=False)
    return uvw


@functools.lru_cache(maxsize=None)
def _table():
    """Read-only _nodes of every multiple of h = 2**-_BLOCK_LEVEL: the nodes
    of levels 0 to _BLOCK_LEVEL, in the order of t."""
    kmax = int(_T_MAX * 2 ** _BLOCK_LEVEL)
    return _nodes(np.arange(-kmax, kmax + 1) / 2 ** _BLOCK_LEVEL)


@functools.lru_cache(maxsize=None)
def _level(level):
    """Read-only _nodes of what ``level`` > _BLOCK_LEVEL adds: the odd
    multiples k*h of h = 2**-level in [-_T_MAX, _T_MAX], from k = -kmax | 1."""
    h = 0.5 ** level
    kmax = int(_T_MAX / h)
    return _nodes(h * np.arange(-kmax | 1, kmax + 1, 2))


def tanh_sinh(f, length):
    """Integrate ``f`` over ``(0, length)``.

    f        -- vectorized callable f(u, v) of node distances from the ends
    length   -- positive interval length

    The level-to-level change must fall below _TOL times max(|value|,
    h*sum|f*w|): the integrand's own size sets the roundoff floor, as
    QUADPACK's does from int|f|.  For an integrand of one sign the two
    terms are equal.  RuntimeError after _MAX_LEVEL halvings without it.

    Returns the value.  Complex integrands are supported.
    """
    if not np.isfinite(length) or length <= 0.0:
        raise ValueError(f"interval length must be positive, got {length}")

    def weighted(uvw):
        u, v, w = uvw
        return f(u * length, v * length) * (w * length)

    def evaluate(level):
        if level <= _BLOCK_LEVEL:
            # s table nodes span 2**-level; level > 0 adds the odd multiples
            s = 1 << (_BLOCK_LEVEL - level)
            vals = block[::s] if level == 0 else block[s::2 * s]
        else:
            vals = weighted(_level(level))
        # non-finite when a value is, or when the sizes overflow, which would
        # make the stop test pass vacuously; checked per level, so that a
        # block level the loop stops before never raises
        size = np.abs(vals).sum()
        if not math.isfinite(size):
            raise RuntimeError("non-finite integrand values in tanh_sinh")
        return vals.sum(), size

    h = 1.0
    # a non-finite value raises in evaluate, and one that overflows to zero
    # stalls convergence; numpy's warnings would only precede that error
    with np.errstate(all="ignore"):
        block = weighted(_table())
        total, size = evaluate(0)
        prev = h * total
        err = np.inf
        for level in range(1, _MAX_LEVEL + 1):
            h *= 0.5
            new, new_size = evaluate(level)
            total += new
            size += new_size
            value = h * total
            err = abs(value - prev)
            if err <= _TOL * max(abs(value), h * size):
                return value
            prev = value
    raise RuntimeError(
        f"tanh_sinh did not converge to {_TOL:g} within {_MAX_LEVEL} levels "
        f"(last change {err:g})"
    )
