"""Analytic coverage curves against scheme-matched Monte Carlo.

The single-branch (total interference cancellation) and two-branch
matched-filter coverage integrals are evaluated by adaptive quadrature and
compared with tagged-user simulations on a shared threshold grid; these are
the anchor checks tying the simulator to the closed-form side.
"""

import math

from cloudradio import ExperimentConfig, crossvalidate, tau_smf2_curve, tau_tic_curve

print("point values at lam=0.3, sigma^2=0.1, alpha=4 (rates in bps/Hz):")
print(f"{'t':>5} {'tau_tic':>9} {'tau_smf2':>9} {'tau_smf2+interf':>16}")
for t in (0.5, 1.0, 2.0, 4.0):
    print(f"{t:5.1f} {tau_tic_curve(0.3, 0.1, [t])[0]:9.4f} "
          f"{tau_smf2_curve(0.3, 0.1, [t])[0]:9.4f} "
          f"{tau_smf2_curve(0.3, 0.1, [t], with_interference=True)[0]:16.4f}")

# at alpha = 4 the exponent integral beyond z is (sqrt(A)/2) arctan(sqrt(A)/z**2),
# A = gamma z**4: pi/8 at gamma = z = 1, so the transform is exp(-2 pi lam pi/8)
print(f"\nLaplace transform of interference beyond 1 km at gamma=1: "
      f"{math.exp(-0.3 * math.pi**2 / 4):.4f}")

cfg = ExperimentConfig(schemes=("tic", "smf2", "smf2-interf"), seed=99)
print("\ncross-validation (30k tagged-user draws per scheme):")
for scheme, r in crossvalidate(cfg, samples=30000).items():
    print(f"{scheme:>12}: sup CDF gap {r['sup_gap']:.4f}, "
          f"median-level SNR shift {r['snr_shift_db_at_median']:+.3f} dB")
