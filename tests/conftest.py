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
    records its size, the jobs submitted to it, and at shutdown which of
    them were still pending and got cancelled. Returns the list of pools
    made."""
    from avoidance import patterns

    pools = []

    class Pool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.jobs = []
            self.pending = []
            self.cancelled = None
            pools.append(self)

        def map(self, fn, jobs):
            # a real pool submits every job at once and yields in order
            self.jobs = list(jobs)
            self.pending = list(self.jobs)
            while self.pending:
                yield fn(self.pending.pop(0))

        def shutdown(self, wait=True, cancel_futures=False):
            self.cancelled = list(self.pending) if cancel_futures else []

    monkeypatch.setattr(patterns, "ProcessPoolExecutor", Pool)
    return pools
