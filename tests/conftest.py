"""Shared fixtures: catalog nodes, workloads, parameters, small spaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.calibration import ground_truth_params
from repro.core.evaluate import evaluate_space
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9, ETHERNET_SWITCH
from repro.simulator.noise import CALIBRATED_NOISE, NOISELESS
from repro.workloads.suite import (
    BLACKSCHOLES,
    EP,
    JULIUS,
    MEMCACHED,
    PAPER_WORKLOADS,
    RSA2048,
    X264,
)


@pytest.fixture
def arm():
    return ARM_CORTEX_A9


@pytest.fixture
def amd():
    return AMD_K10


@pytest.fixture
def switch():
    return ETHERNET_SWITCH


@pytest.fixture
def ep():
    return EP


@pytest.fixture
def memcached():
    return MEMCACHED


@pytest.fixture
def x264():
    return X264


@pytest.fixture
def all_workloads():
    return PAPER_WORKLOADS


@pytest.fixture
def ep_params():
    """Ground-truth model inputs for EP on both node types."""
    return {
        ARM_CORTEX_A9.name: ground_truth_params(ARM_CORTEX_A9, EP),
        AMD_K10.name: ground_truth_params(AMD_K10, EP),
    }


@pytest.fixture
def memcached_params():
    return {
        ARM_CORTEX_A9.name: ground_truth_params(ARM_CORTEX_A9, MEMCACHED),
        AMD_K10.name: ground_truth_params(AMD_K10, MEMCACHED),
    }


@pytest.fixture
def small_ep_space(ep_params):
    """A 3 ARM x 3 AMD EP configuration space (fast, 1,176 rows)."""
    return evaluate_space(ARM_CORTEX_A9, 3, AMD_K10, 3, ep_params, 50e6)


@pytest.fixture
def small_memcached_space(memcached_params):
    return evaluate_space(ARM_CORTEX_A9, 3, AMD_K10, 3, memcached_params, 50_000.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def noiseless():
    return NOISELESS


@pytest.fixture
def calibrated_noise():
    return CALIBRATED_NOISE
