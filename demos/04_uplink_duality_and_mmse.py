"""Uplink-downlink duality and the linear MMSE receiver.

The uplink cloud decodes successively on the transposed channel; its rate
statistics match the downlink ZF-DPC distribution (small KS distance) and the
determinant identity ties the two stream-gain products together exactly.
A joint MMSE receiver trades some rate for linear complexity.
"""

import numpy as np

from cloudradio import ExperimentConfig, build_cdf, lq_factor, simulate

cfg = ExperimentConfig(schemes=("zfdpc", "uplink-sic", "mmse", "conventional"),
                       snr_db=10.0, drops=300, seed=31)
cdfs = {s: build_cdf(np.concatenate([r for _, r in drops]))
        for (s, _), drops in simulate(cfg).items()}

print(f"{'scheme':>12} {'mean':>8} {'cell edge':>10}")
for s in ("conventional", "mmse", "uplink-sic", "zfdpc"):
    print(f"{s:>12} {cdfs[s].mean:8.3f} {cdfs[s].cell_edge:10.3f}")

# two-sample KS statistic: the largest CDF gap, attained at a pooled sample
up, dn = cdfs["uplink-sic"], cdfs["zfdpc"]
pooled = np.concatenate([up.samples, dn.samples])
print(f"\nKS(uplink, downlink) = {np.max(np.abs(up.cdf_at(pooled) - dn.cdf_at(pooled))):.4f}")
print(f"MMSE captures {cdfs['mmse'].mean / cdfs['zfdpc'].mean:.0%} of the ZF-DPC mean rate")

# determinant identity on a small random channel
rng = np.random.default_rng(0)
H = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
dn = lq_factor(H).stream_gains
up = lq_factor(H.T).stream_gains
print(f"prod gains downlink {np.prod(dn):.12f} = uplink {np.prod(up):.12f} "
      f"= |det H| {abs(np.linalg.det(H)):.12f}")
