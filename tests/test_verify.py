from __future__ import annotations

import os

from cachewright import verify
from cachewright.verify import run_verification


def test_jobs_capped_at_cpu_count(monkeypatch):
    serial = run_verification(2, 4, "new", jobs=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started on a one-CPU machine")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(verify, "Pool", no_pool)
    capped = run_verification(2, 4, "new", jobs=3)
    assert capped.ok
    serial.wall_time = capped.wall_time = 0.0
    assert capped.to_json() == serial.to_json()
