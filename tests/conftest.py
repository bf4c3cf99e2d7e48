import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from boxworld import constraints

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def clear_uncertainty_profiles():
    """Every test starts with an empty profile cache, so a test that
    patches the clique search or the weights never reads an earlier
    test's cached answer."""
    constraints._uncertainty_profile.cache_clear()
