"""Bias and coverage of the Hardy-number estimate on seeds no other test uses.

Each row runs the estimator on 40 fresh seeds and checks that the mean lies
within 3 standard errors of the oracle exponent, and that the reported 95%
interval covers it in at least 34 of the 40 seeds (at a true 95% the count
is 38 with a standard deviation of 1.4). A passing seed-0 run shows neither.
"""

import math

import numpy as np
import pytest

from hardynum import Sector, WosConfig, default_grid, estimate_hardy_number, estimate_profile

SEEDS = range(100, 140)
SAMPLES = 20_000
MAX_SEM = 3.0
MIN_COVERED = 34

# (domain, q); the half-plane joins when its 20k-walk estimate is unbiased
ROWS = {
    "quarter_plane": (Sector(math.pi / 2, 1.0), 2.0),
    "slit": (Sector(2 * math.pi, 1.0), 0.5),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_estimate_is_unbiased_and_covered_on_fresh_seeds(name):
    d, q = ROWS[name]
    grid = default_grid(d)
    ests = [estimate_hardy_number(estimate_profile(d, grid, WosConfig(SAMPLES, seed=s)))
            for s in SEEDS]
    values = np.array([e.value for e in ests])
    half = np.array([e.ci_halfwidth for e in ests])
    sem = np.std(values, ddof=1) / math.sqrt(len(values))
    covered = np.count_nonzero(np.abs(values - q) <= half)
    assert abs(values.mean() - q) <= MAX_SEM * sem, (values.mean(), sem)
    assert covered >= MIN_COVERED, covered
