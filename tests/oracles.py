"""Test oracles for the closed forms: the polar-coordinate integrals they
were derived from, evaluated by `scipy.integrate.quad`.

Each integrand is written without cancellation: the per-interferer
Laplace factor 1 - 1/(1 + c/t) is taken as c/(t + c), so quad sees a
smooth positive function and meets its relative tolerance.
"""

import math

from scipy.integrate import quad

EPSREL = 1e-10


def _integral(f, a, b):
    if b <= a:
        return 0.0
    return quad(f, a, b, epsabs=0.0, epsrel=EPSREL, limit=200)[0]


def pc_radial(p, beta_t):
    """Connection probability under the all-Rayleigh treatment:
    exp(-2 pi lambda_u (integral over the LoS disk [0, K] of
    c_L/(t + c_L) r dr + integral beyond K of c_N/(t^2 + c_N) r dr)),
    t = r^2 + H^2, c_L = beta_t H^2, c_N = beta_t H^2 eta_N / eta_L."""
    if beta_t == 0.0 or p.lambda_u == 0.0:
        return 1.0
    h2 = p.h ** 2
    k = p.los_radius
    c_los = beta_t * h2
    c_nlos = beta_t * h2 * p.eta_nlos / p.eta_los

    def f_los(r):
        return c_los / (r * r + h2 + c_los) * r

    def f_nlos(r):
        t = r * r + h2
        return c_nlos / (t * t + c_nlos) * r

    area = _integral(f_los, 0.0, k) + _integral(f_nlos, k, math.inf)
    return math.exp(-2.0 * math.pi * p.lambda_u * area)


def pso_radial(p, beta_e, d=0.0):
    """Secrecy outage with a guard zone of radius d (d = 0: none):
    1 - exp(-2 pi lambda_e e^b (integral over [d, K] of
    exp(-a sqrt(r^2 + H^2)) r dr + integral beyond max(d, K) of
    exp(-q (r^2 + H^2)) r dr)), with q = lambda_u pi^2 sqrt(beta_e) / 2,
    a = q sqrt(eta_N / eta_L) and b = pi lambda_u H^2."""
    if p.lambda_e == 0.0:
        return 0.0
    h2 = p.h ** 2
    k = p.los_radius
    q = p.lambda_u * math.pi ** 2 * math.sqrt(beta_e) / 2.0
    a = q * math.sqrt(p.eta_nlos / p.eta_los)

    def f_los(r):
        return math.exp(-a * math.sqrt(r * r + h2)) * r

    def f_nlos(r):
        return math.exp(-q * (r * r + h2)) * r

    area = (_integral(f_los, d, k)
            + _integral(f_nlos, max(d, k), math.inf))
    return -math.expm1(-2.0 * math.pi * p.lambda_e
                       * math.exp(math.pi * p.lambda_u * h2) * area)
