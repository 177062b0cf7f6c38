"""Self-checks of the quadrature oracles and their frozen constants."""

import numpy as np
import pytest

from oracles import (
    FROZEN,
    alpha1_constant,
    alpha1_series,
    alpha2_constant,
    alpha2_sup_mean,
    exceedance_probability,
    levy_brownian_constant,
    levy_brownian_series,
    smallball_one_sided,
    smallball_walk_probability,
    stay_below_probability,
)


def test_alpha2_constant_values():
    assert alpha2_constant(1.0) == pytest.approx(0.5204999, abs=1e-6)
    assert alpha2_constant(4.0) == pytest.approx(0.2488306, abs=1e-6)
    assert alpha2_constant(0.1) == pytest.approx(0.5637198, abs=1e-6)


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_alpha1_frozen_and_route_agreement(delta):
    """Two independent formulas (exponential start vs squared barrier
    probability) must give the same constant."""
    h_exc = alpha1_constant(delta)
    q = stay_below_probability(-delta, np.sqrt(2.0 * delta))
    assert h_exc == pytest.approx(FROZEN[("alpha1", delta)], abs=2e-6)
    assert q * q / delta == pytest.approx(h_exc, abs=2e-5)


def test_step_halving_stability():
    p1 = exceedance_probability(-1.0, np.sqrt(2.0))
    p2 = exceedance_probability(-1.0, np.sqrt(2.0), h=0.005)
    assert abs(p1 - p2) < 3e-6


@pytest.mark.parametrize("delta", [1.0, 8.0, 16.0, 32.0])
def test_levy_brownian_frozen(delta):
    assert levy_brownian_constant(delta) == pytest.approx(FROZEN[("levy-brownian", delta)], abs=2e-6)


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_frozen_matches_spitzer_series(key):
    family, delta = key
    series = alpha1_series if family == "alpha1" else levy_brownian_series
    assert series(delta) == pytest.approx(FROZEN[key], abs=4e-6)


def test_levy_delta_h_increases_to_one():
    vals = [delta * FROZEN[("levy-brownian", delta)] for delta in (8.0, 16.0, 32.0)]
    assert vals[0] < vals[1] < vals[2] < 1.0
    assert vals[2] > 0.99


def test_alpha2_sup_mean_small_grid():
    # T < delta leaves only the origin: sup exp(w) = 1 exactly
    assert alpha2_sup_mean(0.5, 1.0) == pytest.approx(1.0, abs=1e-9)
    # adding grid points can only increase the sup
    assert alpha2_sup_mean(2.0, 1.0) > alpha2_sup_mean(1.0, 1.0) > 1.0


def test_smallball_oracle_refinement():
    q = smallball_one_sided(0.3, 64)
    q_fine = smallball_one_sided(0.3, 64, h=0.002)
    assert abs(q - q_fine) < 5e-5
    # fewer constraints can only increase the probability
    assert smallball_one_sided(0.3, 32) >= q


def test_smallball_walk_recursion_matches_quadrature():
    # Spitzer's power-series recursion against the killed-density integration
    assert smallball_walk_probability(0.3, 128) == pytest.approx(smallball_one_sided(0.3, 128), abs=5e-5)
    # one constraint: P{N(0, 1) <= eta}
    assert smallball_walk_probability(0.3, 1) == pytest.approx(0.6179114222, abs=1e-9)
