"""The benchmark's workloads still run against the program and pass their own checks.

perfbench drives the program through its public functions and reads some of its
data (coded_placement.deliver, Broadcast.packets); this builds each workload as a benchmark
run does and judges its first op with the workload's own check.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, Roundtrip  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_first_op_of_each_workload_passes_its_check(name, tmp_path):
    workload = WORKLOADS[name](1, 15, tmp_path)
    try:
        item = workload.items[0]
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
