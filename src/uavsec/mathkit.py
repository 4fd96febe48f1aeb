"""Self-contained numerical kernels: Lambert W (one array routine; the
scalar form is its one-element call), hypoexponential CDF, bisection,
adaptive quadrature on finite radial intervals.

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
    """`lambert_w0_array` at one x."""
    return float(lambert_w0_array(np.array([x], dtype=float))[0])


def lambert_w0_array(x: np.ndarray) -> np.ndarray:
    """Principal branch of the Lambert W function elementwise: w with
    w*exp(w) = x, w >= -1, for x in [-1/e, inf) (ValueError on NaN, +inf
    and below -1/e).

    Halley iteration (Corless et al., 1996) from a rational seed below e,
    the asymptotic log form above, and the branch-point series near -1/e
    (w = -1 where 2(e x + 1) rounds to <= 0), then one Newton polish for
    the residual at the scale of x. Only calls with a negative x pay for
    the branch-point seed and its guards."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -_INV_E) & (x < math.inf)):
        raise ValueError("lambert_w0: x is NaN, infinite or below -1/e")
    negative = not np.all(x >= 0.0)
    l1 = np.log(np.maximum(x, math.e))
    l2 = np.log(l1)
    w = np.where(x < math.e,
                 x / (1.0 + x * (1.0 + x * 0.5) / (1.0 + x * 1.1)),
                 l1 - l2 + l2 / l1)
    if negative:
        # Series around the branch point: w = -1 + p - p^2/3 + 11 p^3/72.
        p2 = 2.0 * (math.e * x + 1.0)
        p = np.sqrt(np.maximum(p2, 0.0))
        w = np.where(p2 < 0.5, -1.0 + p - p2 / 3.0 + 11.0 * p * p2 / 72.0, w)
    # Iterate only the elements still moving, for at most 60 steps. A few
    # never meet the stopping rule (their last step is one rounding): once
    # an iterate equals the one two steps back, the deterministic map
    # repeats with period 1 or 2 and never meets the rule either, so the
    # element stops with the member step 60 would hold, chosen by parity.
    flat_w, flat_x = w.reshape(-1), x.reshape(-1)
    live = (np.flatnonzero(p2.reshape(-1) > 0.0) if negative
            else np.arange(flat_w.size))
    older = np.full(live.size, np.nan)      # each live iterate 2 steps back
    for step in range(1, 61):
        wl, xl = flat_w[live], flat_x[live]
        ew = np.exp(wl)
        r = wl * ew - xl
        w1 = wl + 1.0
        dw = r / (ew * w1 - (wl + 2.0) * r / (2.0 * w1))
        new = wl - dw
        moving = np.abs(dw) > 1e-16 * (1.0 + np.abs(new))
        cycle = moving & (new == older)
        flat_w[live] = np.where(cycle & (step % 2 == 1), wl, new)
        keep = moving & ~cycle
        live, older = live[keep], wl[keep]
        if live.size == 0:
            break
    ew = np.exp(w)
    r = w * ew - x
    if not negative:
        return w - r / (ew * (w + 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p2 <= 0.0, -1.0,
                        np.where(w > -1.0, w - r / (ew * (w + 1.0)), w))


# ---------------------------------------------------------------------------
# Hypoexponential CDF (sum of independent exponentials, distinct rates)
# ---------------------------------------------------------------------------

# Rates closer than this, relative, are a tie for `resolve_rate_ties`.
_TIE_REL_TOL = 1e-9


def resolve_rate_ties(rates: np.ndarray) -> np.ndarray:
    """Sort the rates and perturb clashing ones multiplicatively so all are
    pairwise distinct. A run of neighbours closer than `_TIE_REL_TOL`
    relative is a cluster; member k of an m-member cluster is scaled by
    1 + (2k - (m-1))*1e-8 (pairwise relative gaps >= 2e-8), and the rates
    are re-sorted and tested again, three rounds at most. The CDF is
    continuous in the rates, so the perturbation is harmless."""
    lam = np.sort(np.asarray(rates, dtype=float))
    for _ in range(3):
        tied = np.diff(lam) < _TIE_REL_TOL * lam[:-1]
        if not tied.any():
            break
        starts = np.flatnonzero(np.concatenate(([True], ~tied)))
        m = np.diff(starts, append=lam.size)
        k = np.arange(lam.size) - np.repeat(starts, m)
        lam = np.sort(lam * (1.0 + (2 * k - (np.repeat(m, m) - 1)) * 1e-8))
    return lam


def _hypoexp_cdf_mp(lam: np.ndarray, y: float) -> float:
    """Arbitrary-precision fallback for the signed-mixture sum, at a working
    precision sized to the largest log-magnitude of the weights."""
    import mpmath as mp

    with np.errstate(divide="ignore"):
        logmag = max(0.0, float(np.max(_log_weights(lam)[0])))
    dps = 30 + int(logmag / math.log(10.0))
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


# Entries of one block of rows of the weight tables in `_log_weights`:
# 128 KiB a table, small enough to stay in cache.
_WEIGHT_BLOCK = 1 << 14


def _log_weights(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mixture weights delta_i = prod_{j != i} lam_j / (lam_j - lam_i)
    of distinct rates in sign/log form (dodging intermediate overflow):
    (sum_j log|lam_j / (lam_j - lam_i)|, sign of delta_i) per i.

    The n x n tables are built a block of at most `_WEIGHT_BLOCK` entries
    (whole rows) at a time; each row is reduced on its own, so the result
    does not depend on the block size.
    """
    n = lam.size
    log_lam = np.log(lam)
    logsum, sign = np.empty(n), np.empty(n)
    rows = max(1, _WEIGHT_BLOCK // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        diag = (np.arange(hi - lo), np.arange(lo, hi))
        diff = lam[None, :] - lam[lo:hi, None]      # [i, j] = lam_j - lam_i
        diff[diag] = 1.0
        logabs = log_lam[None, :] - np.log(np.abs(diff))
        logabs[diag] = 0.0
        sign[lo:hi] = np.prod(np.sign(diff), axis=1)
        logsum[lo:hi] = np.sum(logabs, axis=1)
    return logsum, sign


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
    if not y >= 0.0:
        raise ValueError(f"hypoexp_cdf: y = {y!r} must be nonnegative")
    if y == 0.0:
        return 0.0
    if lam.size == 1:
        return -math.expm1(-lam[0] * y)

    lam = resolve_rate_ties(lam)
    n = lam.size
    logsum, sign = _log_weights(lam)
    logterm = logsum - lam * y

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

    if not a >= 0.0:
        raise ValueError(f"integrate_radial: a = {a!r} must be nonnegative")
    if not tol > 0.0:
        raise ValueError(f"integrate_radial: tol = {tol!r} must be positive")
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
