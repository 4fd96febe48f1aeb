"""Self-contained numerical kernels: Lambert W, hypoexponential CDF,
bisection, adaptive quadrature on finite radial intervals.

Everything here is a pure function of its inputs and safe to call from
any number of threads.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "AccuracyError",
    "BracketError",
    "DegenerateSumError",
    "lambert_w0",
    "lambert_w0_array",
    "hypoexp_cdf",
    "resolve_rate_ties",
    "bisect_root",
    "integrate_radial",
]

_INV_E = math.exp(-1.0)


class DegenerateSumError(ValueError):
    """Raised when a hypoexponential sum has no components."""


class BracketError(ValueError):
    """Raised when a root bracket does not contain a sign change."""


class AccuracyError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best estimate reached (`estimate`) and the error bound
    achieved (`achieved`).
    """

    def __init__(self, message, estimate, achieved):
        super().__init__(message)
        self.estimate = estimate
        self.achieved = achieved


# ---------------------------------------------------------------------------
# Lambert W, principal branch
# ---------------------------------------------------------------------------

def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function: w with w*exp(w) = x, w >= -1.

    Halley iteration seeded by a piecewise initial guess (branch-point
    series near -1/e, rational fit near 0, asymptotic log form for large x).
    Valid for x >= -1/e; raises ValueError below the branch point.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("lambert_w0: x is NaN")
    if x < -_INV_E:
        raise ValueError(f"lambert_w0: x={x!r} below branch point -1/e")
    if x == 0.0:
        return 0.0

    # Initial guess.
    p2 = 2.0 * (math.e * x + 1.0)
    if p2 <= 0.0:
        return -1.0
    if p2 < 0.5:
        # Series around the branch point w = -1 + p - p^2/3 + 11 p^3/72.
        p = math.sqrt(p2)
        w = -1.0 + p - p2 / 3.0 + 11.0 * p * p2 / 72.0
    elif x < math.e:
        # Pade-like seed, accurate enough for Halley on [-1/e, e].
        w = x / (1.0 + x * (1.0 + x * 0.5) / (1.0 + x * 1.1))
        if w <= -1.0:
            w = -0.99
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1

    # Halley's method.
    for _ in range(60):
        ew = math.exp(w)
        r = w * ew - x
        if r == 0.0:
            break
        w1 = w + 1.0
        denom = ew * w1 - (w + 2.0) * r / (2.0 * w1)
        dw = r / denom
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    # One Newton polish guards the residual contract at the scale of x.
    ew = math.exp(w)
    r = w * ew - x
    if r != 0.0 and w > -1.0:
        w -= r / (ew * (w + 1.0))
    return w


def lambert_w0_array(x: np.ndarray) -> np.ndarray:
    """`lambert_w0` elementwise for positive x: the same seeds, Halley
    stopping rule per element and Newton polish, run on arrays."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("lambert_w0_array: x must be positive")
    l1 = np.log(np.maximum(x, math.e))
    l2 = np.log(l1)
    w = np.where(x < math.e,
                 x / (1.0 + x * (1.0 + x * 0.5) / (1.0 + x * 1.1)),
                 l1 - l2 + l2 / l1)
    # Iterate only the elements still moving: a few never meet the stopping
    # rule (their last step is one rounding) and run all 60 steps.
    flat_w, flat_x = w.reshape(-1), x.reshape(-1)
    live = np.arange(flat_w.size)
    for _ in range(60):
        wl, xl = flat_w[live], flat_x[live]
        ew = np.exp(wl)
        r = wl * ew - xl
        w1 = wl + 1.0
        dw = r / (ew * w1 - (wl + 2.0) * r / (2.0 * w1))
        wl = wl - dw
        flat_w[live] = wl
        live = live[np.abs(dw) > 1e-16 * (1.0 + np.abs(wl))]
        if live.size == 0:
            break
    ew = np.exp(w)
    r = w * ew - x
    return w - r / (ew * (w + 1.0))


# ---------------------------------------------------------------------------
# Hypoexponential CDF (sum of independent exponentials, distinct rates)
# ---------------------------------------------------------------------------

# Rates closer than this, relative, are a tie for `resolve_rate_ties`.
_TIE_REL_TOL = 1e-9


def resolve_rate_ties(rates: np.ndarray) -> np.ndarray:
    """Perturb clashing rates multiplicatively so all are pairwise distinct.

    Rates closer than `_TIE_REL_TOL` relative are clustered; member k of an
    m-member cluster is scaled by 1 + (2k - (m-1))*1e-8, a deterministic
    spread that keeps pairwise relative gaps >= 2e-8. The CDF is continuous
    in the rates, so the perturbation is harmless at this magnitude.
    """
    lam = np.sort(np.asarray(rates, dtype=float))
    for _ in range(3):
        gaps = np.diff(lam) / lam[:-1]
        if np.all(gaps >= _TIE_REL_TOL):
            return lam
        out = lam.copy()
        i = 0
        n = len(lam)
        while i < n:
            j = i
            while (j + 1 < n
                   and (lam[j + 1] - lam[j]) < _TIE_REL_TOL * lam[j]):
                j += 1
            m = j - i + 1
            if m > 1:
                for k in range(m):
                    out[i + k] = lam[i + k] * (1.0 + (2 * k - (m - 1)) * 1e-8)
            i = j + 1
        lam = np.sort(out)
    return lam


def _hypoexp_cdf_mp(lam: np.ndarray, y: float) -> float:
    """Arbitrary-precision fallback for the signed-mixture sum."""
    import mpmath as mp

    n = len(lam)
    # Working precision sized to the largest log-magnitude of the terms.
    with np.errstate(divide="ignore"):
        logmag = 0.0
        for i in range(n):
            d = np.abs(np.delete(lam, i) - lam[i])
            logmag = max(logmag, float(np.sum(np.log(np.delete(lam, i)) - np.log(d))))
    dps = 30 + int(max(0.0, logmag) / math.log(10.0))
    with mp.workdps(min(dps, 4000)):
        rates = [mp.mpf(v) for v in lam]
        surv = mp.mpf(0)
        for i, li in enumerate(rates):
            delta = mp.mpf(1)
            for j, lj in enumerate(rates):
                if j != i:
                    delta *= lj / (lj - li)
            surv += delta * mp.e ** (-li * mp.mpf(y))
        p = 1 - surv
        return min(max(float(p), 0.0), 1.0)


def hypoexp_cdf(rates, y: float) -> float:
    """CDF P{sum_i X_i < y} for independent X_i ~ Exp(rate_i).

    Evaluates the signed exponential mixture with weights
    delta_i = prod_{j != i} rate_j / (rate_j - rate_i). Near-equal rates are
    perturbed first (see `resolve_rate_ties`). The signed sum is accumulated
    exactly (`math.fsum`) in survival form with a running cancellation
    bound; if fewer than ~9 safe digits remain, the sum is redone in
    arbitrary precision. Result is clamped to [0, 1].
    """
    lam = np.asarray(rates, dtype=float).ravel()
    if lam.size == 0:
        raise DegenerateSumError("hypoexp_cdf: empty rate list (degenerate sum)")
    if np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
        raise ValueError("hypoexp_cdf: rates must be positive and finite")
    y = float(y)
    if y < 0.0:
        raise ValueError("hypoexp_cdf: y must be nonnegative")
    if y == 0.0:
        return 0.0
    if lam.size == 1:
        return -math.expm1(-lam[0] * y)

    lam = resolve_rate_ties(lam)
    n = lam.size
    # delta in sign/log form to dodge intermediate overflow.
    diff = lam[None, :] - lam[:, None]          # [i, j] = lam_j - lam_i
    np.fill_diagonal(diff, 1.0)
    logabs = np.log(lam)[None, :] - np.log(np.abs(diff))
    np.fill_diagonal(logabs, 0.0)
    sign = np.prod(np.sign(diff), axis=1)
    logterm = np.sum(logabs, axis=1) - lam * y

    if np.max(logterm) > 680.0:
        return _hypoexp_cdf_mp(lam, y)
    terms = sign * np.exp(logterm)
    surv = math.fsum(terms)
    magnitude = math.fsum(np.abs(terms))
    # Each term carries ~n*eps relative error from the log/exp pipeline.
    if 4.0 * n * 1e-16 * magnitude > 1e-9:
        return _hypoexp_cdf_mp(lam, y)
    return min(max(1.0 - surv, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Monotone bisection
# ---------------------------------------------------------------------------

def bisect_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Root of a monotone f on [lo, hi] by bisection to bracket width <= tol."""
    if not hi > lo:
        raise BracketError(f"bisect_root: empty bracket [{lo}, {hi}]")
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(
            f"bisect_root: no sign change on [{lo}, {hi}] (f: {flo:g} .. {fhi:g})"
        )
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature for radial integrals
# ---------------------------------------------------------------------------

# G7/K15 nodes and weights on [-1, 1].
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K15_W = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_W = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


def _gk15(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _GK_NODES), dtype=float)
    k15 = half * float(np.dot(_K15_W, fx))
    g7 = half * float(np.dot(_G7_W, fx))
    diff = abs(k15 - g7)
    return k15, min(diff, (200.0 * diff) ** 1.5 if diff > 0 else 0.0)


def integrate_radial(f, a: float, b: float, tol: float = 1e-10,
                     breakpoints=(), max_panels: int = 4000) -> float:
    """Adaptive G7/K15 quadrature of a vectorized integrand on the finite
    interval [a, b].

    Known kinks (e.g. a branch radius) should be passed as `breakpoints` so
    panels never straddle them. Raises `AccuracyError` (carrying the best
    estimate) if the relative tolerance is not met within the panel budget.
    """
    import heapq

    if a < 0.0:
        raise ValueError("integrate_radial: a must be nonnegative")
    if not math.isfinite(b):
        raise ValueError("integrate_radial: b must be finite")
    if b <= a:
        if b == a:
            return 0.0
        raise ValueError("integrate_radial: b must exceed a")

    pts = [a] + sorted(set(float(p) for p in breakpoints if a < p < b)) + [b]
    panels = []  # (-err, counter, lo, hi, val, err)
    counter = 0

    def push(lo, hi):
        nonlocal counter
        val, err = _gk15(f, lo, hi)
        heapq.heappush(panels, (-err, counter, lo, hi, val, err))
        counter += 1

    for lo, hi in zip(pts[:-1], pts[1:]):
        push(lo, hi)

    for _ in range(max_panels):
        total = math.fsum(p[4] for p in panels)
        err_total = math.fsum(p[5] for p in panels)
        if err_total <= tol * max(abs(total), 1e-300):
            return total
        neg_err, _, lo, hi, val, err = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            heapq.heappush(panels, (neg_err, counter, lo, hi, val, err))
            break
        push(lo, mid)
        push(mid, hi)

    total = math.fsum(p[4] for p in panels)
    err_total = math.fsum(p[5] for p in panels)
    if err_total <= tol * max(abs(total), 1e-300):
        return total
    raise AccuracyError(
        f"integrate_radial: tolerance {tol:g} not reached "
        f"(achieved {err_total / max(abs(total), 1e-300):.3g} relative)",
        estimate=total,
        achieved=err_total,
    )
