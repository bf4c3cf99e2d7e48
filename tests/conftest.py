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
    """Every test starts and ends with an empty profile cache, so an
    answer cached while a test patched the clique search, its cap or the
    weights is never read after the patch is undone."""
    constraints._uncertainty_profile.cache_clear()
    yield
    constraints._uncertainty_profile.cache_clear()
