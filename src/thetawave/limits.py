"""Degenerate limits of the two-phase solution and their asymptotic data.

Three confluences of branch points collapse the solution to elementary
fields: c -> b and a -> b produce plane waves, a -> 0 a one-phase dn-type
traveling wave.  ``asymptotic_constants`` sets the leading-order curve
integrals, K0 and K2 of each regime, and the solution's own map the rest;
the degenerate fields serve as convergence oracles for the full solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import _quotient_constants
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

    Only the integrals, K0, K2, Z and lambda0 are set; frb- to K1 follow
    from the integrals by ``_quotient_constants``, as in ``SolutionParams``.
    Divergent quantities are math.inf.
    """

    ell: EllipticConstants
    K0: complex
    K2: float
    Z: tuple
    lambda0: float
    frb_minus: float = field(init=False)
    frb_plus: float = field(init=False)
    kappa1: float = field(init=False)
    k: float = field(init=False)
    kappa2: float = field(init=False)
    delta: float = field(init=False)
    K1: float = field(init=False)

    def __post_init__(self):
        for name, val in _quotient_constants(self.ell, self.lambda0).items():
            object.__setattr__(self, name, val)


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


def _a_to_0(lambda0, b, c):
    """The a -> 0 table: the integrals of the a = 0 curve in closed form."""
    rcb2 = (c - b) * (c + b)
    ell = EllipticConstants(
        2.0 * legendre_K(b / c) / c,
        2.0 * legendre_K(math.sqrt(rcb2) / c) / c, math.pi / (b * c),
        math.inf, math.log((c + b) / (c - b)) / (b * c), 0.0,
        0.5 * math.log(4.0 * c * c / rcb2))
    return AsymptoticParams(ell, 0.5j * math.sqrt(rcb2),
                            b * b + c * c - 2.0 * lambda0 ** 2, (0.0, 0.0),
                            lambda0)


def dn_wave_theta(x, t, lambda0, b, c):
    """The a -> 0 one-phase traveling wave in its theta-quotient form."""
    if not 0.0 < b < c:
        raise ValueError("need 0 < b < c")
    tab = _a_to_0(lambda0, b, c)
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    u = tab.k * x + tab.kappa2 * t
    t3, t2 = jacobi_theta(2j * tab.frb_plus, u)
    out = (math.sqrt((c - b) * (c + b)) * (t3 - t2) / (t3 + t2)
           * np.exp(2j * (tab.K1 * x + tab.K2 * t)))
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
        try:
            step = np.linalg.solve(jtj + mu * np.diag(np.diag(jtj)),
                                   -jac.T @ r)
        except np.linalg.LinAlgError:
            # a parameter that moves no sample: no dn profile fits here
            raise RuntimeError("dn profile fit has a singular step: the "
                               "profile is not dn-shaped") from None
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
    """Leading-order values of all constants in the given limit regime.  A
    c -> b curve whose leading-order periods are not all positive is a
    ValueError."""
    p = case.params
    lam = p.lambda0

    if case.kind == "c_to_b":
        b = p.b
        ka = p.a / p.b
        eps = p.c - p.b
        kap = math.sqrt((1.0 - ka) * (1.0 + ka))
        s = 8.0 * b * kap * kap
        # the smallest c - b at which A+, B- or B1- stops being positive
        bound = s / (1.0 + kap) ** 2
        if not eps < bound:
            raise ValueError(f"c - b = {eps} lies outside the c_to_b limit: "
                             f"its leading-order periods need c - b < "
                             f"{bound}")
        b1_minus = -math.log((1.0 + kap) ** 2 * eps / s) / (b * b * kap)
        ell = EllipticConstants(
            -math.log(eps / s) / (b * kap), math.pi / (b * kap),
            math.pi / (b * b * kap),
            -math.log(ka * ka * eps / s) / (b * b * kap), b1_minus,
            math.pi * (1.0 - kap) / (2.0 * kap),
            math.log(2.0 / (1.0 + kap)) + 0.5 * b * b * b1_minus)
        # i*b*(1 + k')**2/(2*k_a) * exp(-pi*frb-/2) at the table's frb-; the
        # factor b restores the scale of the printed dimensionless coefficient
        K0 = 0.5j * (1.0 + kap) ** 2 / kap * math.sqrt(b * eps / 8.0)
        return AsymptoticParams(ell, K0, -2.0 * lam * lam + p.a ** 2
                                + 2.0 * b * b * kap, (0.0, 0.25), lam)

    if case.kind == "a_to_b":
        b, c = p.b, p.c
        rcb = math.sqrt((c - b) * (c + b))
        b1_minus = math.acos((c * c - 2.0 * b * b) / (c * c)) / (b * rcb)
        ell = EllipticConstants(math.pi / rcb, math.inf, math.inf,
                                math.pi / (b * rcb), b1_minus, math.inf,
                                math.log(2.0) + 0.5 * b * b * b1_minus)
        # K0 explicit: the record's c*exp(d- * delta - f-) is inf * 0 here
        return AsymptoticParams(ell, 0.5j * c, -2.0 * lam * lam + c * c,
                                (0.25, 0.0), lam)

    return _a_to_0(lam, p.b, p.c)
