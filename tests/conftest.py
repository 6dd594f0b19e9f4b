from concurrent.futures import ThreadPoolExecutor

import pytest

from singletsim import protocol


@pytest.fixture
def recording_pool(monkeypatch):
    """The list of the pools that protocol.pool_map makes, each a real
    ThreadPoolExecutor that records its ``max_workers`` and the job count of
    each of its ``map`` calls (``maps``, summed as ``jobs``)."""
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.max_workers, self.maps = max_workers, []
            pools.append(self)

        @property
        def jobs(self):
            return sum(self.maps)

        def map(self, fn, jobs):
            self.maps.append(len(jobs))
            return super().map(fn, jobs)

    monkeypatch.setattr(protocol, "ThreadPoolExecutor", RecordingPool)
    return pools
