"""Jacobi theta functions, the two-factor combination H, and the genus-2
Riemann theta.

Series conventions: the nome is h = exp(i*pi*tau) and
    theta3(u|tau) = 1 + 2 * sum_m h**(m**2) * cos(2*pi*m*u),
so the real period in ``u`` is 1 (2 for theta2 because of its sign flip).
The genus-2 theta over a symmetric period matrix B with positive definite
imaginary part reduces, for the matrices produced by this package's curves,
to the combination H of products of theta2/theta3 at doubled arguments;
``theta_reduction_check`` verifies that identity numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PeriodMatrix",
    "jacobi_theta",
    "riemann_theta2",
    "theta_reduction_check",
]

_LOG_TERM_CUTOFF = 17.0 * np.log(10.0)
_EXP_LIMIT = 700.0
_BLOCK_TERMS = 1 << 20  # points x box terms riemann_theta2 sums at once


@dataclass(frozen=True)
class PeriodMatrix:
    """Symmetric 2x2 matrix with positive definite imaginary part."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("period matrix must be 2x2")
        if m[0, 1] != m[1, 0]:
            raise ValueError("period matrix must be symmetric")
        y = m.imag
        if not (y[0, 0] > 0.0 and np.linalg.det(y) > 0.0):
            raise ValueError("imaginary part must be positive definite")
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_ratios(cls, frb_minus, frb_plus):
        """The curve-family matrix [[i*frb-/2, -1/2], [-1/2, i*frb+/2]]."""
        return cls(np.array(
            [[0.5j * frb_minus, -0.5], [-0.5, 0.5j * frb_plus]]
        ))

    def b_coordinates(self, v):
        """The real M with Im v = Im(B) M: where v sits along the b-periods,
        for v of shape (..., 2).  Im B is positive definite, so M exists and
        is unique."""
        return np.linalg.solve(self.entries.imag,
                               np.imag(v)[..., None])[..., 0]


def _theta_modes(j, tau, d):
    """Fourier modes of theta_j(u | tau), j in (2, 3), kept for arguments
    with |Im u| <= d: theta_j(u) = [1 +] 2 * sum_m coef_m * cos(base*mult_m*u),
    the 1 for j = 3 only.

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
    if j == 2:
        base, mult, expo = np.pi, 2.0 * m - 1.0, (m - 0.5) ** 2
    else:
        base, mult, expo = 2.0 * np.pi, m, m ** 2
    return base, mult, np.exp(1j * np.pi * tau * expo)


def _reduce(u, tau):
    """(r, n) with u = r + 2*s + n*tau: u reduced by the real period 2
    (every theta_j has it), then by tau.  Raises OverflowError if the factor
    peeled off with n, exp(-i*pi*n^2*tau - 2*pi*i*n*r), leaves binary64."""
    r = u - 2.0 * np.round(u.real / 2.0)
    n = np.round(r.imag / tau.imag)
    r = r - n * tau
    if np.any(np.pi * n * n * tau.imag + 2.0 * np.pi * n * r.imag
              > _EXP_LIMIT):
        raise OverflowError(
            "theta quasi-periodicity factor exceeds the binary64 range"
        )
    return r, n


def jacobi_theta(j, u, tau):
    """Jacobi theta function theta_j(u | tau), j in (2, 3).

    Vectorized over ``u``.  The argument is first reduced modulo the real
    period and modulo tau (peeling off the quasi-periodicity factor), so
    large |Im u| stays representable; if the peeled factor itself would
    overflow binary64 an OverflowError is raised.
    """
    if j not in (2, 3):
        raise ValueError(f"theta index must be 2 or 3, got {j}")
    tau = complex(tau)
    if not tau.imag > 0.0:
        raise ValueError("tau must have positive imaginary part")

    u_in = np.asarray(u, dtype=complex)
    scalar = u_in.ndim == 0
    u_arr = np.atleast_1d(u_in)

    up, n = _reduce(u_arr, tau)
    fac = np.exp(-1j * np.pi * n * n * tau - 2j * np.pi * n * up)

    d = float(np.max(np.abs(up.imag))) if up.size else 0.0
    base, mult, coef = _theta_modes(j, tau, d)
    ang = base * np.outer(mult, up.ravel())
    val = 2.0 * np.sum(coef[:, None] * np.cos(ang), axis=0)
    if j == 3:
        val = 1.0 + val
    out = val.reshape(up.shape) * fac
    return complex(out[0]) if scalar else out


def _theta_outer(j, bt, c, tau):
    """theta_j(ax + bt + c | tau), j in (2, 3), on the outer grid of a real
    row ``bt`` (shape (1, nt)) and real columns ``ax`` (shape (nx, 1)), c a
    complex scalar: the function ax -> grid values.

    The Fourier modes split cos(w*(ax + bt + c)) into column and row
    factors, so a grid is one (nx x K)(K x nt) matrix product.  The row
    factor is built here once, for every column the function is given.
    Im u = Im c at every node, so one quasi-period reduction, on c, serves
    the grid.
    """
    tau = complex(tau)
    c, n = _reduce(complex(c), tau)
    # real-period reduction (period 2) of each part keeps the angles small
    bt = bt - 2.0 * np.round(bt / 2.0)
    v = bt + c
    base, mult, coef = _theta_modes(j, tau, abs(c.imag))
    w = base * mult
    row = w[:, None] * v
    right = [coef[:, None] * (2.0 * np.cos(row)),
             coef[:, None] * (-2.0 * np.sin(row))]
    if j == 3:
        right.insert(0, np.ones_like(v))
    # the peeled factor exp(-i*pi*n^2*tau - 2*pi*i*n*(ax + bt + c)), split
    # into its row part here and its column part below
    right = np.vstack(right) * np.exp(-1j * np.pi * n * n * tau
                                      - 2j * np.pi * n * v)

    def on_columns(ax):
        ax = ax - 2.0 * np.round(ax / 2.0)
        col = w * ax
        left = [np.cos(col), np.sin(col)]
        if j == 3:
            left.insert(0, np.ones_like(ax))
        return (np.hstack(left) * np.exp(-2j * np.pi * n * ax)) @ right

    return on_columns


def _H_with_scale(t31, t21, t32, t22):
    """H from theta_3 and theta_2 at u1 (moduli 2i*frb_minus) and at u2
    (2i*frb_plus), and a magnitude scale of its four products (for the zero
    test)."""
    h = t31 * t32 + t21 * t32 + t31 * t22 - t21 * t22
    scale = (np.abs(t31) + np.abs(t21)) * (np.abs(t32) + np.abs(t22))
    return h, scale


def riemann_theta2(u, B: PeriodMatrix):
    """Genus-2 Riemann theta, vectorized over ``u`` of shape (..., 2); one
    2-vector gives a Python complex.

    Theta(u | B) = sum over m in Z^2 of exp{i*pi*m^T B m + 2*pi*i*m^T u}.

    The lattice sum runs over one box around every point's maximizer of the
    Gaussian term, with radius set by the smallest eigenvalue of Im B so the
    omitted tail is below 1e-14 of the retained sum.  Each point is scaled
    by its own largest term; blocks of points hold at most ``_BLOCK_TERMS``
    terms.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim == 0 or u.shape[-1] != 2:
        raise ValueError("theta argument must have shape (..., 2)")
    Bm = B.entries
    lam_min = float(np.min(np.linalg.eigvalsh(Bm.imag)))
    w = u.reshape(-1, 2)
    if not len(w):
        return np.empty(u.shape[:-1], dtype=complex)
    center = -B.b_coordinates(w)
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
    B = PeriodMatrix.from_ratios(frb_minus, frb_plus)
    lhs = riemann_theta2(u, B)
    rhs = _H_with_scale(
        *(jacobi_theta(j, 2.0 * u[0], 2j * frb_minus) for j in (3, 2)),
        *(jacobi_theta(j, 2.0 * u[1], 2j * frb_plus) for j in (3, 2)))[0]
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))
