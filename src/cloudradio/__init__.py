"""cloudradio: achievable-rate regions of a cloud radio network.

A numpy library that simulates Poisson-network cooperation schemes
(ZF-DPC, uplink successive cancellation, MMSE, partial CSI, geographic
clustering, Tomlinson-Harashima precoding) and cross-validates the Monte
Carlo rate statistics against analytic coverage integrals.
"""

from .analytic import gamma_threshold, tau_smf2_curve, tau_tic_curve
from .channel import build_channel, inter_cluster_interference, take_partial_csi
from .geometry import Region, associate, sample_ppp, select_cohort, split_cluster
from .harness import (ConfigError, ExperimentConfig, PRESETS, crossvalidate, load_config_file,
                      preset_config, run, simulate, tagged_rate_samples, validate)
from .numerics import NumericalError, hpd_inverse, lq_factor
from .precoding import (conventional_rates, clustered_rates, mmse_rates, smf_rate, tic_rate,
                        uplink_sic_rates, zfdpc_partial_rates, zfdpc_rates)
from .stats import build_cdf, detect_saturation, gain_percent
from .thp import qam_constellation, thp_precode

__version__ = "0.1.0"
