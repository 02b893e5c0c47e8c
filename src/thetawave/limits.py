"""Degenerate limits of the two-phase solution and their asymptotic data.

Three confluences of branch points collapse the solution to elementary
fields: c -> b and a -> b produce plane waves, a -> 0 a one-phase dn-type
traveling wave, each defined once in ``_KINDS``.  ``asymptotic_constants``
sets the leading-order curve integrals, K0 and K2 of each regime, and the
solution's own map the rest; ``limit_distance`` takes the degenerate fields
as convergence oracles for the full solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import _quotient_constants, build_solution_params
from .elliptic import CurveParams, EllipticConstants, legendre_K
from .solution import eval_p
from .theta import jacobi_theta

__all__ = [
    "AsymptoticParams",
    "plane_wave_cb",
    "plane_wave_ab",
    "dn_wave_theta",
    "dn_fit",
    "jacobi_dn",
    "asymptotic_constants",
    "limit_distance",
]

# a fit's largest max |A*dn - f| / max |f|: 150 x |dn_wave_theta|'s 6.8e-8
_FIT_RTOL = 1e-5


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
    if not a > 0.0:
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

    Returns (A, B, ktilde, x0), refusing a fit that does not converge or
    misses f by more than _FIT_RTOL of max |f|.  When ``k20`` (the frequency
    constant of the reduced traveling-wave equation) is supplied, the
    derived parameter relations A = B, A**2 = 2*k20/(2 - ktilde**2) and the
    profile equation f'' = 2*k20*f - 2*f**3 are asserted to ``tol``.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if not (xs.ndim == 1 and xs.shape == fs.shape and xs.size >= 5
            and np.isfinite([xs, fs]).all()):
        raise ValueError("dn_fit needs xs and fs finite, 1-D, of one length "
                         "and at least 5 samples")
    fmax, fmin = float(np.max(fs)), float(np.min(fs))
    if fmax <= 0.0:
        raise ValueError("profile must be positive somewhere")
    k0 = min(max(math.sqrt(max(0.0, 1.0 - (fmin / fmax) ** 2)), 1e-6),
             1.0 - 1e-9)
    # B0 from the peak curvature -A*B**2*k**2 of A*dn(B*u; k): the
    # three-point second difference on unequal spacing at an interior node
    i = int(np.argmax(fs))
    j = min(max(i, 1), xs.size - 2)
    (h1, h2), (fl, fc, fr) = np.diff(xs[j - 1:j + 2]), fs[j - 1:j + 2]
    fpp = 2.0 * (fl / h1 - fc * (h1 + h2) / (h1 * h2) + fr / h2) / (h1 + h2)
    B0 = math.sqrt(-fpp / (fmax * k0 * k0)) if fpp < 0.0 else fmax

    def residual(p):
        A, B, kt, x0 = p
        return A * jacobi_dn(B * (xs - x0), kt) - fs

    # Levenberg-Marquardt on a forward-difference Jacobian, each trial
    # clipped to the bounds A, B >= 0, 0 <= ktilde < 1
    p = np.array([fmax, B0, k0, xs[i]])
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
            # a parameter that moves no sample from this iterate
            raise RuntimeError("dn profile fit has a singular step: a fit "
                               "parameter moves no sample") from None
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
    miss = float(np.max(np.abs(r)) / np.max(np.abs(fs)))
    if miss > _FIT_RTOL:
        raise RuntimeError(f"dn profile fit misses f by {miss:.3g} of max |f|")
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


def _c_to_b(p):
    b, lam, eps = p.b, p.lambda0, p.c - p.b
    ka = p.a / b
    kap = math.sqrt((1.0 - ka) * (1.0 + ka))
    s = 8.0 * b * kap * kap
    # the smallest c - b at which A+, B- or B1- stops being positive
    bound = s / (1.0 + kap) ** 2
    if not eps < bound:
        raise ValueError(f"c - b = {eps} lies outside the c_to_b limit: "
                         f"its leading-order periods need c - b < {bound}")
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


def _a_to_b(p):
    b, c, lam = p.b, p.c, p.lambda0
    rcb = math.sqrt((c - b) * (c + b))
    b1_minus = math.acos((c * c - 2.0 * b * b) / (c * c)) / (b * rcb)
    ell = EllipticConstants(math.pi / rcb, math.inf, math.inf,
                            math.pi / (b * rcb), b1_minus, math.inf,
                            math.log(2.0) + 0.5 * b * b * b1_minus)
    # K0 explicit: the record's c*exp(d- * delta - f-) is inf * 0 here
    return AsymptoticParams(ell, 0.5j * c, -2.0 * lam * lam + c * c,
                            (0.25, 0.0), lam)


# kind -> (the collapsing gap of a curve, relative for a_to_b; the (a, b, c)
# of its family's member at gap eps; the limiting field at (x, t); the table)
_KINDS = {
    "c_to_b": (lambda p: p.c - p.b,
               lambda p, eps: (p.a, p.b, p.b + eps),
               lambda x, t, p: plane_wave_cb(x, t, p.lambda0, p.a),
               _c_to_b),
    "a_to_b": (lambda p: (p.b - p.a) / p.b,
               lambda p, eps: (p.b * (1.0 - eps), p.b, p.c),
               lambda x, t, p: plane_wave_ab(x, t, p.lambda0, p.b, p.c),
               _a_to_b),
    "a_to_0": (lambda p: p.a,
               lambda p, eps: (eps, p.b, p.c),
               lambda x, t, p: dn_wave_theta(x, t, p.lambda0, p.b, p.c),
               lambda p: _a_to_0(p.lambda0, p.b, p.c)),
}


def _kind(kind):
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {tuple(_KINDS)}")
    return _KINDS[kind]


def asymptotic_constants(kind, params: CurveParams):
    """The leading-order constants of ``params`` in the regime ``kind``; an
    unknown kind, or a c_to_b curve off its table, is a ValueError."""
    return _kind(kind)[3](params)


def limit_distance(kind, curve: CurveParams, eps):
    """{"kind", "eps", "sup_distance"}, no verdict: the sup distance on a
    21 x 5 (x, t) window from ``curve``'s limiting field to the solution on
    its family's member at gap ``eps`` and table Z.  An eps that leaves no
    member, lies outside the c_to_b table or gives integrals that do not
    converge is refused before any evaluation."""
    _, at, limit, _ = _kind(kind)
    try:
        member = CurveParams(curve.lambda0, *at(curve, eps))
    except ValueError:
        raise ValueError(f"no valid {kind} curve at eps={eps}") from None
    try:
        Z = np.array(asymptotic_constants(kind, member).Z)
    except ValueError as exc:  # a c_to_b curve outside its table
        raise ValueError(f"--eps {eps}: {exc}") from None
    try:
        sp = build_solution_params(member, Z)
    except RuntimeError:  # a quadrature that does not converge
        raise ValueError(f"no {kind} curve at --eps {eps} builds: its "
                         "integrals do not converge this close to the "
                         "limit") from None
    xs = np.linspace(-0.2, 0.2, 21)[:, None]
    ts = np.linspace(-0.01, 0.01, 5)[None, :]
    sup = float(np.max(np.abs(eval_p(xs, ts, sp) - limit(xs, ts, curve))))
    return {"kind": kind, "eps": eps, "sup_distance": sup}
