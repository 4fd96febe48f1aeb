#!/usr/bin/env python3
"""Audit the outage-simulation window policy: compare the policy windows
(eavesdropper window e_win, interferer window u_win, after any guard-zone
widening) against equal windows of twice u_win at a few configurations and
report the shift in units of the Monte Carlo half-width.

Usage: python scripts/outage_window_audit.py [n_realizations]
"""

import sys

from uavsec import analytic
from uavsec.model import ExactLoSNLoS, GuardZone, NetworkParams
from uavsec.montecarlo import SimConfig, _outage_windows, sim_outage


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    beta_e = 1.0
    print(f"{'config':28s} {'e_win':>7s} {'u_win':>7s} {'policy':>9s} "
          f"{'doubled':>9s} {'shift/hw':>9s} {'closed form':>12s}")
    for le, d in ((3e-5, None), (1e-4, None), (1e-4, 10.0), (3e-4, 20.0)):
        p = NetworkParams(lambda_u=1e-3, lambda_e=le, h=10.0)
        zone = GuardZone(d) if d is not None else None
        e_win, u_win = _outage_windows(p, beta_e, SimConfig(n), zone)
        a = sim_outage(p, beta_e, zone, SimConfig(n, seed=7,
                                                  model=ExactLoSNLoS))
        b = sim_outage(p, beta_e, zone,
                       SimConfig(n, window_radius=2 * u_win, seed=7,
                                 model=ExactLoSNLoS))
        cf = analytic.pso_zone_approx(p, beta_e, zone)
        label = f"lambda_e={le:g}" + (f", d={d:g}" if d else "")
        print(f"{label:28s} {e_win:7.1f} {u_win:7.1f} {a.value:9.5f} "
              f"{b.value:9.5f} "
              f"{abs(a.value - b.value) / a.half_width:9.2f} {cf:12.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
