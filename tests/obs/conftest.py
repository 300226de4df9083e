import pytest

from repro.obs.metrics import metrics
from repro.obs.trace import tracer


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Keep the process-wide registry and tracer isolated between tests."""
    metrics().reset()
    metrics().enable()
    yield
    metrics().reset()
    metrics().enable()
    tracer().reset()
