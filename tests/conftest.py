import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def recording_pools(monkeypatch):
    """Replace the process pool behind patterns.map_workers with a fake
    that runs jobs in-process, so no process is ever started. Each pool
    records its size and the jobs (chunks) submitted to it. Returns the
    list of pools made."""
    from avoidance import patterns

    pools = []

    class Pool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.jobs = []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            self.jobs = list(jobs)
            return map(fn, self.jobs)

    monkeypatch.setattr(patterns, "ProcessPoolExecutor", Pool)
    return pools
