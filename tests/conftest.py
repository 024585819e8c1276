import numpy as np
import pytest

from surfcalc.chart_geometry import (QuadratureRule, default_rule,
                                     sphere_atlas, torus_atlas)


@pytest.fixture(scope="session")
def sphere():
    return sphere_atlas()


@pytest.fixture(scope="session")
def torus():
    return torus_atlas()


@pytest.fixture(scope="session")
def sphere_rule(sphere):
    # reference rule on the polar integration chart: near machine-precision
    # closed-surface integrals
    return default_rule(sphere)


@pytest.fixture(scope="session")
def sphere_rule_dense(sphere):
    # the psi-weighted two-band rule of 122,880 nodes: for tests of node
    # blocking, peak memory and the partition of unity
    return QuadratureRule(sphere, order=160, periodic_order=384)


@pytest.fixture(scope="session")
def sphere_rule_fast(sphere):
    # light rule for tests that only need ~1e-6 integrals
    return QuadratureRule(sphere, order=48, periodic_order=128)


@pytest.fixture(scope="session")
def torus_rule(torus):
    return default_rule(torus)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def random_nodes(chart, rng, n):
    (lo1, hi1), (lo2, hi2) = chart.domain
    return np.stack([rng.uniform(lo1, hi1, n), rng.uniform(lo2, hi2, n)])
