"""Geographic clustering and the high-SNR saturation it causes.

Only BSs within the cluster radius cooperate; everything outside interferes
without remedy.  Rates rise with SNR while noise dominates, then settle on an
interference-limited plateau that the saturation detector locates.
"""

from cloudradio import ExperimentConfig, detect_saturation, run, simulate

import numpy as np

# 20 km x 20 km region so an 8 km cluster disc fits without clipping
for radius in (4.0, 8.0):
    cfg = ExperimentConfig(region_km=(20.0, 20.0), schemes=("conventional", "clustered"),
                           cluster_radius_km=radius, snr_db=10.0, drops=150, seed=5,
                           output_dir="demo-output")
    report = run(cfg, name=f"cluster-{radius:g}km")
    g = report.gains_vs_conventional["clustered"]["10"]["mean_pct"]
    print(f"radius {radius:g} km: clustered mean "
          f"{report.summaries['clustered']['10']['mean']:.2f} bps/Hz "
          f"({g:+.0f}% vs conventional)")

print("\nSNR sweep, radius 8 km, CSI limited to 6 channels, low BS intensity:")
cfg = ExperimentConfig(region_km=(20.0, 20.0), lambda_b=0.1, cluster_radius_km=8.0,
                       csi_l=6, schemes=("clustered-partial",),
                       snr_db=[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0],
                       drops=120, seed=5)
pooled = simulate(cfg)
means = [float(np.mean(np.concatenate([r for _, r in pooled["clustered-partial", s]])))
         for s in cfg.snr_list]
for snr, m in zip(cfg.snr_list, means):
    print(f"  {snr:5.0f} dB: mean {m:.2f} bps/Hz")
snr_db, plateau = detect_saturation(cfg.snr_list, means)
if snr_db is not None:
    print(f"saturates at {snr_db:.0f} dB with plateau {plateau:.2f} bps/Hz")
else:
    print("not saturated in range")
