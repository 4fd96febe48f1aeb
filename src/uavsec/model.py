"""Network domain types, PPP sampling, the elevation-angle-dependent
LoS/NLoS channel kernel, and the seed-to-stream convention.

Geometry: the typical legitimate receiver sits at the origin of the ground
plane with its serving transmitter directly overhead at altitude H. A ground
node at horizontal distance r sees the transmitter at elevation angle
arcsin(H / sqrt(r^2 + H^2)); the link is line-of-sight iff that angle exceeds
theta_c, i.e. iff r < K = H*cot(theta_c). LoS links are deterministic with
path-loss exponent alpha_los; NLoS links carry unit-mean exponential
(Rayleigh power) fading with exponent alpha_nlos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

__all__ = [
    "FadingModel",
    "ExactLoSNLoS",
    "AllRayleigh",
    "NetworkParams",
    "GuardZone",
    "los_radius",
    "sample_ppp",
    "pathloss",
    "links",
    "gains",
    "rng_stream",
    "q1",
    "rule_window_radius",
    "outage_window_radius",
]


class FadingModel:
    """Marker for the fading treatment of LoS links.

    ExactLoSNLoS: LoS links deterministic, NLoS links Rayleigh.
    AllRayleigh: every link Rayleigh with its branch's path loss.
    """

    los_faded = False


class ExactLoSNLoS(FadingModel):
    los_faded = False


class AllRayleigh(FadingModel):
    los_faded = True


def los_radius(h, theta_c: float):
    """Horizontal radius K = H*cot(theta_c) of the LoS disk, at an altitude
    or, elementwise, at an array of altitudes."""
    if not (np.isfinite(h) & np.greater(h, 0.0)).all():
        raise ValueError("los_radius: altitude must be finite and positive")
    if not 0.0 < theta_c < math.pi / 2:
        raise ValueError("los_radius: theta_c must lie in (0, pi/2)")
    return h / math.tan(theta_c)


@dataclass(frozen=True)
class NetworkParams:
    """Densities, channel constants and altitude bounds of the network.

    Units: densities per m^2, angles in radians, altitudes in metres,
    reference gains linear (dimensionless at 1 m).
    """

    lambda_u: float            # transmitter/legitimate-receiver density
    lambda_e: float            # eavesdropper density
    h: float = 10.0            # transmitter altitude
    theta_c: float = math.pi / 4
    h_min: float = 10.0
    h_max: float = 50.0
    eta_los: float = 1.0
    eta_nlos: float = 0.01     # 20 dB LoS advantage at 1 m by default
    alpha_los: float = 2.0
    alpha_nlos: float = 4.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.lambda_u < 0 or self.lambda_e < 0:
            raise ValueError("densities must be nonnegative")
        if not 0.0 < self.theta_c < math.pi / 2:
            raise ValueError("theta_c must lie in (0, pi/2)")
        if not 0.0 < self.h_min <= self.h <= self.h_max:
            raise ValueError(f"altitude {self.h} outside [{self.h_min}, "
                             f"{self.h_max}] or h_min not positive")
        if not self.eta_los >= self.eta_nlos > 0:
            raise ValueError("need eta_los >= eta_nlos > 0")
        if self.alpha_los <= 0 or self.alpha_nlos <= 0:
            raise ValueError("path-loss exponents must be positive")

    @cached_property    # `links` reads it per block; the check costs ~3 us
    def los_radius(self) -> float:
        return los_radius(self.h, self.theta_c)

    def with_altitude(self, h: float) -> "NetworkParams":
        return replace(self, h=h)


@dataclass(frozen=True)
class GuardZone:
    """Eavesdropper-free disk of radius d around each transmitter's ground
    projection; transmitters with a detected eavesdropper inside stay silent
    (emitting indistinguishable artificial noise), thinning the transmitter
    density to lambda_u * exp(-pi * lambda_e * d^2)."""

    d: float

    def __post_init__(self):
        check_threshold(self.d, "guard-zone radius d")


def sample_ppp(density: float, r_in: float, r_out: float,
               rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP on the annulus r_in <= r < r_out around the origin.

    Returns an (n, 2) array; n is Poisson with mean density*pi*(r_out^2-r_in^2)
    and positions are uniform on the annulus. Deterministic given rng state.
    """
    if not 0.0 <= r_in <= r_out:
        raise ValueError("need 0 <= r_in <= r_out")
    if density < 0:
        raise ValueError("density must be nonnegative")
    area = math.pi * (r_out ** 2 - r_in ** 2)
    n = rng.poisson(density * area) if area > 0 and density > 0 else 0
    if n == 0:
        return np.empty((0, 2))
    r = np.sqrt(r_in ** 2 + (r_out ** 2 - r_in ** 2) * rng.random(n))
    phi = rng.random(n) * (2.0 * math.pi)
    return np.column_stack((r * np.cos(phi), r * np.sin(phi)))


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """The random stream spawned from `seed` under the integer key path
    `key`; every stream in the package is derived this way."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=key))


# Pairs (eavesdropper-interferer, interferer-receiver, or interferer-grid
# point of the semi-analytic field) held at once by one block of the
# array kernels: 2^16 keeps a block's temporaries in cache, and measured
# faster than 2^12..2^15 and 2^18..2^22 in the simulators.
BLOCK_LINKS = 1 << 16


def pathloss(d2: np.ndarray, alpha: float, out=None) -> np.ndarray:
    """D^-alpha from squared distance; reciprocal fast paths for the
    canonical exponents (np.power is ~50x slower). `out`, as in a numpy
    ufunc, receives the result in place."""
    if alpha == 2.0:
        return np.divide(1.0, d2, out=out)
    if alpha == 4.0:
        inv = np.divide(1.0, d2, out=out)
        return np.multiply(inv, inv, out=inv)
    return np.power(d2, -alpha / 2.0, out=out)


def links(params: NetworkParams, span2, d2=None, los=None):
    """The one link kernel: squared 3-D distances span2 + H^2 and the LoS
    mask span2 < K^2 (ties NLoS) from squared horizontal spans `span2`.
    `d2` and `los` are numpy `out` arguments; `d2` may be `span2` itself."""
    los = np.less(span2, params.los_radius ** 2, out=los)
    return np.add(span2, params.h ** 2, out=d2), los


def gains(params: NetworkParams, model: type, horiz2: np.ndarray,
          fades: np.ndarray) -> np.ndarray:
    """Received power factor eta*S*D^-alpha per link to a receiver on the
    ground from a transmitter at altitude H, from the squared horizontal
    span `horiz2` (D^2 and the LoS mask from `links`) and unit-mean
    exponential draws `fades` (1-D arrays of one length).

    LoS branch: eta_los, alpha_los, S = 1 under ExactLoSNLoS or the draw
    under AllRayleigh. NLoS branch: eta_nlos, alpha_nlos, S = the draw
    under both models. The NLoS expression is evaluated on every link in
    place, then overwritten at the LoS links only (found by flat index),
    with the same operations per element as evaluating both branches
    everywhere.
    """
    d2, los = links(params, horiz2)
    g = pathloss(d2, params.alpha_nlos)
    np.multiply(params.eta_nlos * fades, g, out=g)
    los = np.flatnonzero(los)
    s_los = fades[los] if model.los_faded else 1.0
    g[los] = params.eta_los * s_los * pathloss(d2[los], params.alpha_los)
    return g


def check_threshold(value: float, name: str, positive: bool = False):
    """Raise ValueError unless `value` (an SIR threshold, a density, a
    rate gap, a guard-zone or window radius) is finite and nonnegative
    (positive, if `positive`)."""
    if not (0.0 < value if positive else 0.0 <= value) or value == math.inf:
        raise ValueError(f"{name} = {value!r} must be finite and "
                         f"{'positive' if positive else 'nonnegative'}")


def q1(params: NetworkParams, beta_e):
    """The outage forms' variable q1 = lambda_u pi^2 sqrt(beta_e) / 2 (1/m)
    at thresholds beta_e: a float for a scalar, an array for an array."""
    sqrt = np.sqrt if isinstance(beta_e, np.ndarray) else math.sqrt
    return params.lambda_u * math.pi ** 2 * sqrt(beta_e) / 2.0


# ---------------------------------------------------------------------------
# Simulation-window policies
# ---------------------------------------------------------------------------

def rule_window_radius(params: NetworkParams) -> float:
    """Interferer-window radius at which the expected truncated interference
    is < 0.1% of the expected in-window NLoS interference (alpha_nlos = 4
    tail bound): R^2 + H^2 >= 1001 * (K^2 + H^2)."""
    k2 = params.los_radius ** 2
    h2 = params.h ** 2
    return math.sqrt(1001.0 * (k2 + h2) - h2)


def connection_window_radius(params: NetworkParams, beta_t: float,
                             n_realizations: int) -> float:
    """Interferer window for connection simulation, sized so the closed-form
    truncation bias is at most 5% of the binomial half-width.

    Truncating at R removes NLoS interference whose effect on the
    all-Rayleigh connection probability is exactly a factor
    exp(pi*lambda_u*c/(R^2+H^2)) with c = beta_t*eta_nlos*H^2/eta_los, so
    P_c * pi*lambda_u*c/(R^2+H^2) <= 0.05*hw pins R. Never below
    max(3K, 60 m) and never above the 0.1% interference-tail radius
    (pointless beyond it).
    """
    floor = max(3.0 * params.los_radius, 60.0)
    cap = rule_window_radius(params)
    if params.lambda_u <= 0.0 or beta_t <= 0.0:
        return max(floor, min(100.0, cap))
    if params.alpha_los == 2.0 and params.alpha_nlos == 4.0:
        from .analytic import pc_approx
        pc = pc_approx(params, beta_t)
    else:
        return cap
    hw = 1.96 * math.sqrt(max(pc * (1.0 - pc), 1e-12) / n_realizations)
    c = beta_t * params.eta_nlos * params.h ** 2 / params.eta_los
    r2 = (math.pi * params.lambda_u * c * pc / (0.05 * hw)
          - params.h ** 2)
    if r2 <= floor ** 2:
        return floor
    return min(math.sqrt(r2), cap)


# Closed-form outage that `outage_window_radius` leaves to eavesdroppers
# beyond its window.
_OUTAGE_RESIDUAL = 1e-6


def outage_window_radius(params: NetworkParams, beta_e: float) -> float:
    """Eavesdropper sampling radius for outage simulation.

    Sized so the closed-form outage contributed by eavesdroppers beyond the
    window is <= `_OUTAGE_RESIDUAL` (solved from the large-radius tail of
    the guard-zone outage form), with a 25% margin; never below 3 K + 30 m.
    """
    floor = 3.0 * params.los_radius + 30.0
    if params.lambda_e <= 0.0 or beta_e <= 0.0 or params.lambda_u <= 0.0:
        return max(floor, 100.0)
    q = q1(params, beta_e)
    k = -math.log1p(-_OUTAGE_RESIDUAL)
    r2 = (math.log(math.pi * params.lambda_e / (q * k))
          + math.pi * params.lambda_u * params.h ** 2) / q - params.h ** 2
    if r2 <= 0.0:
        return floor
    return max(floor, 1.25 * math.sqrt(r2))
