"""Jacobi theta functions, the two-factor combination H, and the genus-2
Riemann theta.

Series conventions: the nome is h = exp(i*pi*tau) and
    theta3(u|tau) = 1 + 2 * sum_m h**(m**2) * cos(2*pi*m*u),
so the real period in ``u`` is 1 (2 for theta2 because of its sign flip:
the pair at u + 1 and at u - 1 is (theta3, -theta2) at u).
H reads theta3 and theta2 at each of its arguments, so ``jacobi_theta`` and
``_theta_outer`` return the pair, from one argument reduction.
The genus-2 theta, a lattice sum over the curve family's period matrix
B = [[i*frb-/2, -1/2], [-1/2, i*frb+/2]] (``PeriodMatrix``), reduces to the
combination H of products of theta2/theta3 at doubled arguments;
``theta_reduction_check`` verifies that identity numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PeriodMatrix",
    "jacobi_theta",
    "riemann_theta2",
    "theta_reduction_check",
]

_LOG_TERM_CUTOFF = 17.0 * math.log(10.0)
_EXP_LIMIT = 700.0
_BLOCK_TERMS = 1 << 20  # points x box terms riemann_theta2 sums at once


@dataclass(frozen=True)
class PeriodMatrix:
    """B = [[i*frb_minus/2, -1/2], [-1/2, i*frb_plus/2]], the curve family's
    period matrix, from its two period ratios, both > 0 (NaN refused)."""

    frb_minus: float
    frb_plus: float

    def __post_init__(self):
        if not (self.frb_minus > 0.0 and self.frb_plus > 0.0):
            raise ValueError("period ratios must be > 0")

    @property
    def entries(self):
        return np.array([[0.5j * self.frb_minus, -0.5],
                         [-0.5, 0.5j * self.frb_plus]])

    def __matmul__(self, n):
        """B n for real n of shape (..., 2)."""
        return (0.5j * np.array([self.frb_minus, self.frb_plus]) * n
                - 0.5 * n[..., ::-1])

    def b_coordinates(self, v):
        """The real M with Im v = Im(B) M, for v of shape (..., 2): where v
        sits along the b-periods, Im v over (frb-/2, frb+/2)."""
        return np.imag(v) / (0.5 * np.array([self.frb_minus, self.frb_plus]))


def _theta_modes(tau, d):
    """Fourier modes of theta3 and then theta2 (u | tau), kept for arguments
    with |Im u| <= d: each a (base, mult, coef) with
    theta_j(u) = [1 +] 2 * sum_m coef_m * cos(base*mult_m*u), the 1 for
    theta3 only.  Both share one mode count.

    Truncation: with y = Im tau, the m-th term is bounded by
    exp(-pi*y*m^2 + 2*pi*d*m + pi*y*m); stop once it falls 1e-17 below the
    largest possible term.
    """
    y = tau.imag
    bc = 2.0 * np.pi * d + np.pi * y
    a_ = np.pi * y
    mmax = int(np.ceil((bc + np.sqrt(bc * bc + 4.0 * a_ * (
        _LOG_TERM_CUTOFF + np.pi * d * d / y))) / (2.0 * a_))) + 2

    m = np.arange(1, mmax + 1, dtype=float)
    return ((2.0 * np.pi, m, np.exp(1j * np.pi * tau * m ** 2)),
            (np.pi, 2.0 * m - 1.0, np.exp(1j * np.pi * tau * (m - 0.5) ** 2)))


def _reduce(u, tau):
    """(r, n) with u = r + 2*s + n*tau: u reduced by the real period 2
    (theta3 and theta2 both have it), then by tau.  Raises OverflowError if
    the factor peeled off with n, exp(-i*pi*n^2*tau - 2*pi*i*n*r), leaves
    binary64."""
    r = u - 2.0 * np.round(u.real / 2.0)
    n = np.round(r.imag / tau.imag)
    r = r - n * tau
    if np.any(np.pi * n * n * tau.imag + 2.0 * np.pi * n * r.imag
              > _EXP_LIMIT):
        raise OverflowError(
            "theta quasi-periodicity factor exceeds the binary64 range"
        )
    return r, n


def jacobi_theta(tau, u):
    """The pair (theta3(u | tau), theta2(u | tau)).

    Vectorized over ``u``: a scalar gives two Python complex values, an
    array two arrays of its shape.  The argument is reduced once, modulo the
    real period and modulo tau (peeling off the quasi-periodicity factor),
    so large |Im u| stays representable; if the peeled factor itself would
    overflow binary64 an OverflowError is raised.
    """
    tau = complex(tau)
    if not tau.imag > 0.0:
        raise ValueError("tau must have positive imaginary part")
    u = np.asarray(u, dtype=complex)
    up, n = _reduce(np.atleast_1d(u), tau)
    fac = np.exp(-1j * np.pi * n * n * tau - 2j * np.pi * n * up)
    d = float(np.max(np.abs(up.imag))) if up.size else 0.0
    t3, t2 = (2.0 * np.sum(coef[:, None]
                           * np.cos(base * np.outer(mult, up.ravel())), axis=0)
              for base, mult, coef in _theta_modes(tau, d))
    pair = ((1.0 + t3).reshape(up.shape) * fac, t2.reshape(up.shape) * fac)
    return (complex(pair[0][0]), complex(pair[1][0])) if u.ndim == 0 else pair


def _theta_outer(bt, c, tau):
    """(theta3, theta2)(ax + bt + c | tau) on the outer grid of a real row
    ``bt`` (shape (1, nt)) and real columns ``ax`` (shape (nx, 1)), c a
    complex scalar: the function ax -> the pair of grids.

    The Fourier modes split cos(w*(ax + bt + c)) into column and row
    factors, so a grid is one (nx x K)(K x nt) matrix product.  The row
    factors are built here once, for every column the function is given.
    Im u = Im c at every node, so one quasi-period reduction, on c, serves
    both grids.
    """
    tau = complex(tau)
    c, n = _reduce(complex(c), tau)
    # real-period reduction (period 2) of each part keeps the angles small
    bt = bt - 2.0 * np.round(bt / 2.0)
    v = bt + c
    # the peeled factor exp(-i*pi*n^2*tau - 2*pi*i*n*(ax + bt + c)), split
    # into its row part here and its column part below
    peel = np.exp(-1j * np.pi * n * n * tau - 2j * np.pi * n * v)
    factors = []
    for one, (base, mult, coef) in zip((True, False),
                                       _theta_modes(tau, abs(c.imag))):
        w = base * mult
        row = w[:, None] * v
        right = ([np.ones_like(v)] if one else []) + [
            coef[:, None] * (2.0 * np.cos(row)),
            coef[:, None] * (-2.0 * np.sin(row))]
        factors.append((one, w, np.vstack(right) * peel))

    def on_columns(ax):
        ax = ax - 2.0 * np.round(ax / 2.0)
        col_peel = np.exp(-2j * np.pi * n * ax)
        return tuple(
            (np.hstack(([np.ones_like(ax)] if one else [])
                       + [np.cos(w * ax), np.sin(w * ax)]) * col_peel) @ right
            for one, w, right in factors)

    return on_columns


def _H(plus, minus, t32, t22):
    """H(v, w) = (theta3 + theta2)(v) theta3(w) + (theta3 - theta2)(v)
    theta2(w), the exact factored form of theta3 theta3 + theta2 theta3
    + theta3 theta2 - theta2 theta2: from ``plus`` and ``minus`` at v
    (modulus 2i*frb-) and the pair at w (2i*frb+)."""
    return plus * t32 + minus * t22


def riemann_theta2(u, B: PeriodMatrix):
    """Genus-2 Riemann theta, vectorized over ``u`` of shape (..., 2); one
    2-vector gives a Python complex.

    Theta(u | B) = sum over m in Z^2 of exp{i*pi*m^T B m + 2*pi*i*m^T u}.

    The lattice sum runs over one box around every point's maximizer of the
    Gaussian term, with radius set by min(frb-, frb+)/2, the smallest
    eigenvalue of Im B, so the omitted tail is below 1e-14 of the retained
    sum.  Each point is scaled by its own largest term; blocks of points
    hold at most ``_BLOCK_TERMS`` terms.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim == 0 or u.shape[-1] != 2:
        raise ValueError("theta argument must have shape (..., 2)")
    Bm = B.entries
    w = u.reshape(-1, 2)
    if not len(w):
        return np.empty(u.shape[:-1], dtype=complex)
    center = -B.b_coordinates(w)
    lam_min = 0.5 * min(B.frb_minus, B.frb_plus)
    radius = int(np.ceil(np.sqrt(14.0 * np.log(10.0) / (np.pi * lam_min)))) + 2

    lo = np.floor(center.min(axis=0)) - radius
    hi = np.floor(center.max(axis=0)) + radius
    m1, m2 = np.meshgrid(np.arange(lo[0], hi[0] + 1),
                         np.arange(lo[1], hi[1] + 1), indexing="ij")
    n1, n2 = m1.ravel(), m2.ravel()
    gauss = 1j * np.pi * (
        Bm[0, 0] * n1 * n1 + 2.0 * Bm[0, 1] * n1 * n2 + Bm[1, 1] * n2 * n2
    )
    out = np.empty(len(w), dtype=complex)
    step = max(1, _BLOCK_TERMS // n1.size)
    for s in range(0, len(w), step):
        expo = gauss + 2j * np.pi * (n1 * w[s:s + step, :1]
                                     + n2 * w[s:s + step, 1:])
        peak = np.max(expo.real, axis=1, keepdims=True)
        out[s:s + step] = np.exp(peak[:, 0]) * np.sum(np.exp(expo - peak),
                                                      axis=1)
    return complex(out[0]) if u.ndim == 1 else out.reshape(u.shape[:-1])


def theta_reduction_check(u, frb_minus, frb_plus):
    """Relative discrepancy between the genus-2 theta over the curve-family
    period matrix and the Jacobi-product combination H at doubled arguments."""
    u = np.asarray(u, dtype=complex)
    B = PeriodMatrix(frb_minus, frb_plus)
    lhs = riemann_theta2(u, B)
    t31, t21 = jacobi_theta(2j * frb_minus, 2.0 * u[0])
    rhs = _H(t31 + t21, t31 - t21, *jacobi_theta(2j * frb_plus, 2.0 * u[1]))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))
