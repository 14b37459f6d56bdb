"""Tomlinson-Harashima precoding: exact loopback and the power penalty.

THP approximates dirty-paper coding with feedback pre-subtraction plus a
symmetric modulo.  Over a noiseless channel the receiver modulo recovers
every symbol exactly; the price is a small transmit-power increase, largest
when every stream is forced onto QPSK.
"""

import numpy as np

from cloudradio import (ExperimentConfig, NoiseModel, Region, associate, build_channel,
                        lq_factor, sample_ppp, select_cohort, select_modulation,
                        thp_loopback, thp_power_cdf, thp_precode)
from cloudradio.geometry import distance_block
from cloudradio.thp import draw_symbols

rng = np.random.default_rng(3)

# factorizations from real network drops
facts, sizes = [], []
region = Region(10.0, 10.0)
while len(facts) < 150:
    bs = sample_ppp(0.3, region, rng)
    ue = sample_ppp(3.0, region, rng)
    if not (len(bs) and len(ue)):
        continue
    assoc = associate(bs, ue)
    cohort = select_cohort(assoc, rng)
    if cohort.k < 2:
        continue
    z = distance_block(assoc, cohort.ue_indices, cohort.bs_indices)
    facts.append(lq_factor(build_channel(z, 1.0, 4.0, rng)))
    sizes.append(cohort.k)

noise = NoiseModel.from_snr_db(10.0)

# exact loopback on one drop
fact = facts[0]
caps = np.log2(1.0 + fact.stream_gains**2 / noise.sigma_sq)
cons = [select_modulation(c) for c in caps]
data = draw_symbols(cons, rng)[0]
out = thp_precode(fact, data, cons)
rec = thp_loopback(fact, out, cons)
print(f"one drop, k = {len(data)}: max loopback error = {np.max(np.abs(rec - data)):.2e}")
sizes_used = sorted({c.M for c in cons})
print(f"adaptive constellations in use: {sizes_used}")

# transmit-power CDFs, normalized per stream
for mode, label in [(4, "fixed M=4"), (16, "fixed M=16"), ("adaptive", "adaptive M")]:
    cdf = thp_power_cdf(facts, noise, mode, np.random.default_rng(1))
    per_stream = cdf.samples / np.asarray(sizes, dtype=float)
    print(f"{label:>12}: median power/stream = {np.median(per_stream):.3f} "
          f"(ZF-DPC reference = 1.000)")
print("\nthe QPSK-only penalty is the 4/3 modulo loss; adaptive stays near unity")
