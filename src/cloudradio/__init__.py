"""cloudradio: achievable-rate regions of a cloud radio network.

A numpy/scipy library that simulates Poisson-network cooperation schemes
(ZF-DPC, uplink successive cancellation, MMSE, partial CSI, geographic
clustering, Tomlinson-Harashima precoding) and cross-validates the Monte
Carlo rate statistics against analytic coverage integrals.
"""

from .analytic import (CoverageCurve, QuadratureConfig, gamma_threshold, laplace_ir, tau_smf2,
                       tau_smf2_curve, tau_tic, tau_tic_curve)
from .channel import (ChannelMatrix, NoiseModel, build_channel, inter_cluster_interference,
                      take_partial_csi)
from .geometry import (Association, Cohort, ClusterSplit, PointSet, Region, associate,
                       sample_ppp, select_cohort, split_cluster)
from .harness import (ConfigError, ExperimentConfig, ExperimentReport, PRESETS,
                      crossvalidate, load_config_file, preset_config, run, simulate_drop,
                      tagged_rate_samples, validate)
from .numerics import NumericalError, TriangularFactorization, hpd_inverse, lq_factor
from .precoding import (conventional_rates, clustered_rates, mmse_rates, smf_rate, tic_rate,
                        uplink_sic_rates, zfdpc_partial_rates, zfdpc_rates)
from .stats import (RateCdf, SaturationResult, build_cdf, detect_saturation, gain_percent,
                    ks_distance)
from .thp import (QamConstellation, ThpOutput, qam_constellation, select_modulation,
                  thp_loopback, thp_power_cdf, thp_precode)

__version__ = "0.1.0"
