"""Tanh-sinh (double-exponential) quadrature over a finite interval.

The integrand is supplied as ``f(u, v)`` where ``u`` is the distance of the
node from the lower endpoint and ``v`` the distance from the upper endpoint
(``u + v == length``).  Passing both distances lets callers evaluate factors
like ``sqrt(b2 - t)`` without catastrophic cancellation at either end, which
is what makes inverse-square-root endpoint singularities converge at full
binary64 accuracy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tanh_sinh"]

# |t| beyond ~6 produces node distances below ~1e-276; further nodes only
# risk underflow to exactly zero without contributing anything.
_T_MAX = 6.0
# refinement budget: levels of step halving before RuntimeError
_MAX_LEVEL = 16


def _nodes(t):
    """Map trapezoid abscissas t to (u_frac, v_frac, weight_factor)."""
    z = 0.5 * np.pi * np.sinh(t)
    # logistic distances from the two endpoints, written with exp(-2|z|) so
    # that the short side stays a positive subnormal instead of overflowing
    ez = np.exp(-2.0 * np.abs(z))
    near = ez / (1.0 + ez)
    far = 1.0 / (1.0 + ez)
    pos = z > 0.0
    u = np.where(pos, far, near)
    v = np.where(pos, near, far)
    w = np.pi * np.cosh(t) * ez / (1.0 + ez) ** 2
    return u, v, w


def tanh_sinh(f, length, tol=1e-12, scale=1.0):
    """Integrate ``f`` over ``(0, length)``.

    f        -- vectorized callable f(u, v) of node distances from the ends
    length   -- positive interval length
    tol      -- tolerance on the level-to-level change, taken relative to
                max(scale, |value|); scale=0 makes it purely relative;
                RuntimeError after _MAX_LEVEL halvings without it

    Returns (value, error_estimate).  Complex integrands are supported.
    """
    if not np.isfinite(length) or length <= 0.0:
        raise ValueError(f"interval length must be positive, got {length}")

    def evaluate(t):
        u, v, w = _nodes(t)
        vals = f(u * length, v * length) * (w * length)
        if not np.all(np.isfinite(vals)):
            raise RuntimeError("non-finite integrand values in tanh_sinh")
        return np.sum(vals)

    h = 1.0
    # a non-finite value raises in evaluate, and one that overflows to zero
    # stalls convergence; numpy's warnings would only precede that error
    with np.errstate(all="ignore"):
        total = evaluate(h * np.arange(-int(_T_MAX / h), int(_T_MAX / h) + 1))
        value = h * total
        prev = value
        err = np.inf
        for _ in range(1, _MAX_LEVEL + 1):
            h *= 0.5
            # new nodes sit at odd multiples of the refined step
            kmax = int(_T_MAX / h)
            if kmax % 2 == 0:
                kmax -= 1
            t_new = h * np.arange(-kmax, kmax + 1, 2)
            total += evaluate(t_new)
            value = h * total
            err = abs(value - prev)
            if err <= tol * max(scale, abs(value)):
                return value, err
            prev = value
    raise RuntimeError(
        f"tanh_sinh did not converge to {tol:g} within {_MAX_LEVEL} levels "
        f"(last change {err:g})"
    )
