import numpy as np
import pytest
from hypothesis import settings

from cloudradio import Region, associate, build_channel, sample_ppp, select_cohort
from cloudradio.geometry import distance_block

# every Tier-1 run tries the same examples: derandomize seeds each test's
# generator from the test itself and implies no example database
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def standard_drop(rng, lambda_b=0.3, side=10.0, alpha=4.0):
    """One full geometry + channel realization of the reference network.

    Returns (bs, ue, primary_bs, cohort, H): the two point arrays, the
    primary-BS index of every UE, the cohort and its channel.
    """
    region = Region(side, side)
    while True:
        bs = sample_ppp(lambda_b, region, rng)
        ue = sample_ppp(10.0 * lambda_b, region, rng)
        if len(bs) and len(ue):
            primary_bs = associate(bs, ue)
            cohort = select_cohort(primary_bs, rng)
            if cohort.k >= 2:
                break
    H = build_channel(distance_block(ue[cohort.ue_indices], bs[cohort.bs_indices]), alpha, rng)
    return bs, ue, primary_bs, cohort, H


@pytest.fixture
def drop(rng):
    return standard_drop(rng)


def random_complex(rng, k):
    return (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2)
