"""Degenerate limits of the two-phase solution and their asymptotic data.

Three confluences of branch points collapse the solution to elementary
fields: c -> b and a -> b produce plane waves, a -> 0 a one-phase dn-type
traveling wave.  ``asymptotic_constants`` evaluates the leading-order
expressions of every curve integral and derived parameter in each regime;
the degenerate fields serve as convergence oracles for the full solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import CurveParams, EllipticConstants, legendre_K
from .theta import jacobi_theta

__all__ = [
    "LimitCase",
    "AsymptoticParams",
    "plane_wave_cb",
    "plane_wave_ab",
    "dn_wave_theta",
    "dn_fit",
    "jacobi_dn",
    "asymptotic_constants",
]

_KINDS = ("c_to_b", "a_to_b", "a_to_0")


@dataclass(frozen=True)
class LimitCase:
    """A near-degenerate family member tagged with which gap collapses."""

    kind: str
    params: CurveParams

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")

    @property
    def small(self):
        """The collapsing gap (relative for a_to_b, absolute otherwise)."""
        p = self.params
        if self.kind == "c_to_b":
            return p.c - p.b
        if self.kind == "a_to_b":
            return (p.b - p.a) / p.b
        return p.a


@dataclass(frozen=True)
class AsymptoticParams:
    """Leading-order curve integrals and solution parameters of a limit.

    Divergent quantities are math.inf, vanishing ones 0.0.
    """

    ell: EllipticConstants
    frb_minus: float
    frb_plus: float
    kappa1: float
    k: float
    kappa2: float
    delta: float
    K0: complex
    K1: float
    K2: float
    Z: tuple


def plane_wave_cb(x, t, lambda0, a):
    """The c -> b plane-wave limit: amplitude a."""
    if a <= 0.0:
        raise ValueError("need a > 0")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    out = a * np.exp(-2j * lambda0 * x
                     - 2j * (2.0 * lambda0 ** 2 - a * a) * t)
    return complex(out) if out.ndim == 0 else out


def plane_wave_ab(x, t, lambda0, b, c):
    """The a -> b plane-wave limit: amplitude c, extra half-phase phi/2."""
    if not 0.0 < b < c:
        raise ValueError("need 0 < b < c")
    phi = math.acos((c * c - 2.0 * b * b) / (c * c))
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    out = c * np.exp(-2j * lambda0 * x
                     - 2j * (2.0 * lambda0 ** 2 - c * c) * t
                     - 0.5j * phi)
    return complex(out) if out.ndim == 0 else out


def _a0_plus_data(b, c):
    """A+, B+ of the a = 0 curve (exact closed forms)."""
    a_plus = 2.0 * legendre_K(b / c) / c
    b_plus = 2.0 * legendre_K(math.sqrt((c - b) * (c + b)) / c) / c
    return a_plus, b_plus


def dn_wave_theta(x, t, lambda0, b, c):
    """The a -> 0 one-phase traveling wave in its theta-quotient form."""
    if not 0.0 < b < c:
        raise ValueError("need 0 < b < c")
    a_plus, b_plus = _a0_plus_data(b, c)
    frb_plus = b_plus / a_plus
    k = 2.0 / a_plus
    kappa2 = 8.0 * lambda0 / a_plus
    K1 = -lambda0
    K2 = b * b + c * c - 2.0 * lambda0 ** 2
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    u = k * x + kappa2 * t
    t3, t2 = jacobi_theta(2j * frb_plus, u)
    out = (math.sqrt((c - b) * (c + b)) * (t3 - t2) / (t3 + t2)
           * np.exp(2j * (K1 * x + K2 * t)))
    return complex(out) if out.ndim == 0 else out


def jacobi_dn(u, k):
    """dn(u, k) by the arithmetic-geometric mean, vectorized over u."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {k}")
    u = np.asarray(u, dtype=float)
    if k == 0.0:
        out = np.ones_like(u)
        return float(out) if out.ndim == 0 else out
    an = [1.0]
    bn = [math.sqrt((1.0 - k) * (1.0 + k))]
    cn = [k]
    while abs(cn[-1]) > 1e-15 * an[-1]:
        a_next = 0.5 * (an[-1] + bn[-1])
        b_next = math.sqrt(an[-1] * bn[-1])
        cn.append(0.5 * (an[-1] - bn[-1]))
        an.append(a_next)
        bn.append(b_next)
    n = len(an) - 1
    phi = (2.0 ** n) * an[n] * u
    for j in range(n, 0, -1):
        phi_prev = 0.5 * (phi + np.arcsin(
            np.clip(cn[j] / an[j] * np.sin(phi), -1.0, 1.0)
        ))
        phi, phi_last = phi_prev, phi
    out = np.cos(phi) / np.cos(phi_last - phi)
    return float(out) if out.ndim == 0 else out


def dn_fit(xs, fs, k20=None, tol=1e-6):
    """Fit f(x) = A*dn(B*(x - x0); ktilde) to a sampled real profile.

    Returns (A, B, ktilde, x0).  When ``k20`` (the frequency constant of the
    reduced traveling-wave equation) is supplied, the derived parameter
    relations A = B, A**2 = 2*k20/(2 - ktilde**2) and the profile equation
    f'' = 2*k20*f - 2*f**3 are asserted to ``tol``.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    fmax, fmin = float(np.max(fs)), float(np.min(fs))
    if fmax <= 0.0:
        raise ValueError("profile must be positive somewhere")
    k0 = math.sqrt(max(0.0, 1.0 - (fmin / fmax) ** 2))
    x00 = float(xs[int(np.argmax(fs))])

    def residual(p):
        A, B, kt, x0 = p
        return A * jacobi_dn(B * (xs - x0), kt) - fs

    # Levenberg-Marquardt on a forward-difference Jacobian, each trial
    # clipped to the bounds A, B >= 0, 0 <= ktilde < 1
    p = np.array([fmax, fmax, min(max(k0, 1e-6), 1.0 - 1e-9), x00])
    r, mu = residual(p), 1e-3
    for _ in range(100):
        h = 1e-8 * np.maximum(1.0, np.abs(p))
        h[2] *= -1.0 if p[2] > 0.5 else 1.0  # the ktilde step stays in [0, 1)
        jac = (np.array([residual(p + dp) for dp in np.diag(h)]) - r).T / h
        jtj = jac.T @ jac
        step = np.linalg.solve(jtj + mu * np.diag(np.diag(jtj)), -jac.T @ r)
        trial = np.clip(p + step, [0.0, 0.0, 0.0, -np.inf],
                        [np.inf, np.inf, 1.0 - 1e-9, np.inf])
        rt = residual(trial)
        if rt @ rt < r @ r:
            p, r, mu = trial, rt, mu / 10.0
            if np.all(np.abs(step) <= 1e-13 * (np.abs(p) + 1e-13)):
                break
        elif mu > 1e12:
            break  # no step lowers the residual: converged to rounding
        else:
            mu *= 10.0
    else:
        raise RuntimeError("dn profile fit did not converge")
    A, B, kt, x0 = (float(v) for v in p)
    if k20 is not None:
        if abs(A - B) > tol * abs(A):
            raise AssertionError(f"fit violates A = B: {A} vs {B}")
        if abs(A * A - 2.0 * k20 / (2.0 - kt * kt)) > tol * A * A:
            raise AssertionError("fit violates A**2 = 2*K20/(2 - k**2)")
        # the model family has the exact second derivative
        # (A*dn(u))'' = A*B**2*((2 - k**2)*dn - 2*dn**3), so the ODE
        # residual can be evaluated without finite differences
        xi = np.linspace(xs[0], xs[-1], 257)
        dnv = jacobi_dn(B * (xi - x0), kt)
        f0 = A * dnv
        fpp = A * B * B * ((2.0 - kt * kt) * dnv - 2.0 * dnv ** 3)
        ode = fpp - 2.0 * k20 * f0 + 2.0 * f0 ** 3
        if np.max(np.abs(ode)) > tol * max(1.0, np.max(np.abs(f0)) ** 3):
            raise AssertionError("fitted profile fails its ODE")
    return A, B, kt, x0


def asymptotic_constants(case: LimitCase):
    """Leading-order values of all constants in the given limit regime."""
    p = case.params
    lam = p.lambda0
    inf = math.inf

    if case.kind == "c_to_b":
        b = p.b
        ka = p.a / p.b
        eps = p.c - p.b
        kap = math.sqrt((1.0 - ka) * (1.0 + ka))
        a_plus = -math.log(eps / (8.0 * b * kap * kap)) / (b * kap)
        b_plus = math.pi / (b * kap)
        a_minus = math.pi / (b * b * kap)
        b_minus = -math.log(ka * ka * eps / (8.0 * b * kap * kap)) \
            / (b * b * kap)
        b1_minus = -math.log(ka * (1.0 + kap) * eps
                             / (8.0 * b * kap * kap)) / (b * b * kap)
        d_minus = math.pi * (1.0 - kap) / (2.0 * kap)
        f_minus = math.log(2.0 / (1.0 + kap)) + 0.5 * b * b * b1_minus
        frbm = b_minus / a_minus
        return AsymptoticParams(
            ell=EllipticConstants(a_plus, b_plus, a_minus, b_minus,
                                  b1_minus, d_minus, f_minus),
            frb_minus=frbm,
            frb_plus=0.0,
            kappa1=4.0 * b * b * kap / math.pi,
            k=0.0,
            kappa2=0.0,
            delta=frbm - 2.0 / math.pi * math.log((1.0 + kap) / ka),
            # the printed leading coefficient is dimensionless; restoring the
            # amplitude scale requires the factor b (verified numerically:
            # the ratio to the exact K0 is 1/b across b at fixed k_a)
            K0=1j * b * (1.0 + kap) ** 2 / (2.0 * ka)
               * math.exp(-math.pi * frbm / 2.0),
            K1=-lam,
            K2=-2.0 * lam * lam + p.a ** 2 + 2.0 * b * b * kap,
            Z=(0.0, 0.25),
        )

    if case.kind == "a_to_b":
        b, c = p.b, p.c
        rcb = math.sqrt((c - b) * (c + b))
        phi = math.acos((c * c - 2.0 * b * b) / (c * c))
        b1_minus = phi / (b * rcb)
        return AsymptoticParams(
            ell=EllipticConstants(
                a_plus=math.pi / rcb,
                b_plus=inf,
                a_minus=inf,
                b_minus=math.pi / (b * rcb),
                b1_minus=b1_minus,
                d_minus=inf,
                f_minus=math.log(2.0) + 0.5 * b * b * b1_minus,
            ),
            frb_minus=0.0,
            frb_plus=inf,
            kappa1=0.0,
            k=2.0 * rcb / math.pi,
            kappa2=8.0 * lam * rcb / math.pi,
            delta=0.0,
            K0=0.5j * c,
            K1=-lam,
            K2=-2.0 * lam * lam + c * c,
            Z=(0.25, 0.0),
        )

    # a_to_0
    b, c = p.b, p.c
    a_plus, b_plus = _a0_plus_data(b, c)
    rcb2 = (c - b) * (c + b)
    return AsymptoticParams(
        ell=EllipticConstants(
            a_plus=a_plus,
            b_plus=b_plus,
            a_minus=math.pi / (b * c),
            b_minus=inf,
            b1_minus=math.log((c + b) / (c - b)) / (b * c),
            d_minus=0.0,
            f_minus=0.5 * math.log(4.0 * c * c / rcb2),
        ),
        frb_minus=inf,
        frb_plus=b_plus / a_plus,
        kappa1=4.0 * b * c / math.pi,
        k=2.0 / a_plus,
        kappa2=8.0 * lam / a_plus,
        delta=math.log((c + b) / (c - b)) / math.pi,
        K0=0.5j * math.sqrt(rcb2),
        K1=-lam,
        K2=-2.0 * lam * lam + b * b + c * c,
        Z=(0.0, 0.0),
    )
