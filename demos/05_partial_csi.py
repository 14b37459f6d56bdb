"""Rate cost of limiting channel state information.

Each user feeds back only its l strongest coefficients; the precoder
factorizes the partial matrix and the mismatch comes back as residual
interference.  The demo sweeps l and reports the captured fraction of the
full-CSI mean rate.
"""

import numpy as np

from cloudradio import ExperimentConfig, build_cdf, simulate

full_cfg = ExperimentConfig(schemes=("zfdpc",), snr_db=10.0, drops=200, seed=47)
full = build_cdf(np.concatenate([r for _, r in simulate(full_cfg)["zfdpc", 10.0]]))

print(f"full-CSI ZF-DPC mean: {full.mean:.3f} bps/Hz\n")
print(f"{'l':>4} {'mean':>8} {'fraction of full':>17} {'cell edge':>10}")
for l in (2, 4, 6, 10, 15):
    cfg = ExperimentConfig(schemes=("zfdpc-partial",), snr_db=10.0, drops=200,
                           seed=47, csi_l=l)
    cdf = build_cdf(np.concatenate([r for _, r in simulate(cfg)["zfdpc-partial", 10.0]]))
    print(f"{l:>4} {cdf.mean:8.3f} {cdf.mean / full.mean:17.1%} {cdf.cell_edge:10.3f}")
print("\nsame seed everywhere, so every row sees identical drops and fades")
