"""The benchmark's workloads still run against the program and pass their own checks.

perfbench drives the program through its public functions and reads some of its
data (coded_placement.deliver, Broadcast.packets); this builds each workload as a benchmark
run does and judges its warm-up op and first two timed ops, run in one process as the
timed loop runs them, with the workload's own check.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from cachewright import cli  # noqa: E402
from workloads import WORKLOADS, Roundtrip  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_first_op_of_each_workload_passes_its_check(name, tmp_path):
    # the warm-up op builds the CLI parser, as in a fresh worker; the timed ops reuse it
    cli._parser.cache_clear()
    workload = WORKLOADS[name](1, 15, tmp_path)
    try:
        for item in [workload.warmup, *workload.items[:2]]:
            workload.check(item, workload.run(item))
    finally:
        workload.close()


def test_a_roundtrip_broadcast_is_a_third_of_a_file(tmp_path):
    # (3, 4): K packets of one subfile each, K(K-1) = 12 subfiles per file
    workload = Roundtrip(1, 15, tmp_path)
    try:
        reference = workload.reference()
    finally:
        workload.close()
    assert reference["comm.broadcast_symbols_per_file_symbol"] == 1 / 3
