"""The three closed-loop workloads: one client, the next op after the last.

Each workload turns a seed into a fixed list of ops, runs one op at a time
through the program's public functions, and checks each output with
checks.py. Two runs with the same seed and --seconds do identical work.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from pathlib import Path

from cachewright import cli, coded_placement, converse, tradeoff
from cachewright.field import coded_to_wire
from cachewright.model import NetworkConfig, split_file

import checks


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process `cachewright` call with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    """A fixed op list built from a seed; `run` does one op, `check` judges it."""

    name = ""
    items: list
    warmup: object

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> None:
        raise NotImplementedError

    def reference(self) -> dict[str, float]:
        """Per-layer reference figures measured outside the timed ops."""
        return {}

    def close(self) -> None:
        """Remove the files the workload wrote."""


class Roundtrip(Workload):
    """`cachewright roundtrip --scheme new` of one seeded 64 KiB file at (3,4).

    Each op draws a (demand, user) pair from D x [K] without repetition, so
    every call splits, places, delivers and decodes a fresh combination and
    builds its N-1 filler files. (3,4) has 36 demands, so 144 pairs.
    """

    name = "roundtrip"
    N, K = 3, 4
    FILE_BYTES = 64 * 1024
    NOMINAL_OP_S = 0.14

    def __init__(self, seed: int, seconds: float, workdir: Path):
        rng = random.Random(f"roundtrip-{seed}")
        self.source = rng.randbytes(self.FILE_BYTES)
        tag = f"{self.name}-{seed}-{os.getpid()}"
        self.input = workdir / f"{tag}.in"
        self.output = workdir / f"{tag}.out"
        self.input.write_bytes(self.source)
        pairs = [(d, u) for d in checks.demand_set(self.N, self.K)
                 for u in range(1, self.K + 1)]
        ops = min(len(pairs) - 1, max(40, round(seconds / self.NOMINAL_OP_S)))
        drawn = rng.sample(pairs, ops + 1)
        self.warmup, self.items = drawn[0], drawn[1:]

    def run(self, item):
        demand, user = item
        return _run_cli(["roundtrip", "--n", str(self.N), "--k", str(self.K),
                         "--scheme", "new", "--demand", ",".join(map(str, demand)),
                         "--user", str(user), str(self.input), "--out", str(self.output)])

    def check(self, item, result) -> None:
        rc, stdout = result
        decoded = self.output.read_bytes() if self.output.exists() else b""
        with contextlib.suppress(FileNotFoundError):
            self.output.unlink()
        checks.check_roundtrip(rc, stdout, decoded, self.source, self.N, self.K)

    def reference(self) -> dict[str, float]:
        """Communication of one broadcast, in symbols and in wire bytes.

        Measured outside any timed op, through the library rather than the
        CLI: the seeded file is file 1 and the demand is the first timed one.
        """
        cfg = NetworkConfig(self.N, self.K)
        rng = random.Random("roundtrip-reference")
        library = [split_file(self.source, cfg)] + [
            split_file(rng.randbytes(self.FILE_BYTES), cfg) for _ in range(self.N - 1)]
        broadcast = coded_placement.deliver(library, self.items[0][0], cfg)
        file_symbols = cfg.subfiles_per_file * library[0].subfile_len
        wire = coded_to_wire(s for packet in broadcast.packets for s in packet)
        return {"comm.broadcast_symbols_per_file_symbol": broadcast.symbol_count / file_symbols,
                "comm.wire_bytes_per_file_byte": len(wire) / self.FILE_BYTES}

    def close(self) -> None:
        for path in (self.input, self.output):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()


class VerifySweep(Workload):
    """Exhaustive `cachewright verify --jobs 1` under both schemes, per op.

    The configs (5,5), (3,5), (4,5) have |D| = 120, 150, 240 and take about
    0.08, 0.13 and 0.17 s for both schemes, so the median op falls in the
    middle config and the tail in the largest. Each round holds each config
    once, in a seeded order.
    """

    name = "verify-sweep"
    CONFIGS = ((5, 5), (3, 5), (4, 5))
    NOMINAL_ROUND_S = 0.4

    def __init__(self, seed: int, seconds: float, workdir: Path):
        rng = random.Random(f"verify-sweep-{seed}")
        self.demands = {c: len(checks.demand_set(*c)) for c in self.CONFIGS}
        rounds = max(math.ceil(40 / len(self.CONFIGS)), round(seconds / self.NOMINAL_ROUND_S))
        self.items = []
        for _ in range(rounds):
            self.items += rng.sample(self.CONFIGS, len(self.CONFIGS))
        self.warmup = self.CONFIGS[0]

    def run(self, item):
        n, k = item
        return [(scheme, *_run_cli(["verify", "--n", str(n), "--k", str(k),
                                    "--scheme", scheme, "--jobs", "1"]))
                for scheme in ("new", "man")]

    def check(self, item, result) -> None:
        n, k = item
        for scheme, rc, stdout in result:
            checks.check_verify(rc, stdout, n, k, scheme, self.demands[item])


class CertifyCurves(Workload):
    """Every (N, K) with 2 <= N <= K for K = 8..19, each pair once per round.

    An op generates every certificate that applies, checks it, serializes
    it, parses the text back and checks the copy, then runs tightness_check,
    assemble_known_curve and emit_csv. Exact Fraction work only, no bytes.
    """

    name = "certify-curves"
    K_RANGE = range(8, 20)
    NOMINAL_ROUND_S = 15.0
    CSV_SAMPLES = 33

    def __init__(self, seed: int, seconds: float, workdir: Path):
        rng = random.Random(f"certify-curves-{seed}")
        pairs = [(n, k) for k in self.K_RANGE for n in range(2, k + 1)]
        rounds = max(1, round(seconds / self.NOMINAL_ROUND_S))
        self.items = []
        for _ in range(rounds):
            self.items += rng.sample(pairs, len(pairs))
        self.warmup = pairs[0]

    @staticmethod
    def cases(n: int, k: int) -> list[int]:
        return [case for case, applies in ((1, checks.many_files), (2, checks.few_files))
                if applies(n, k)]

    def run(self, item):
        n, k = item
        certs = []
        for case in self.cases(n, k):
            generate = converse.case1_certificate if case == 1 else converse.case2_certificate
            cert = generate(n, k)
            report = converse.check_certificate(cert)
            parsed = converse.parse_certificate(converse.serialize_certificate(cert))
            certs.append((case, cert, report, parsed, converse.check_certificate(parsed)))
        tight = converse.tightness_check(n, k)
        curve = tradeoff.assemble_known_curve(n, k)
        return certs, tight, curve, tradeoff.emit_csv(curve, self.CSV_SAMPLES)

    def check(self, item, result) -> None:
        n, k = item
        certs, tight, curve, csv_text = result
        checks.expect([c[0] for c in certs] == self.cases(n, k),
                      f"({n},{k}) produced cases {[c[0] for c in certs]}")
        for case, cert, report, parsed, parsed_report in certs:
            checks.check_certificate_pair(case, n, k, cert, report, parsed, parsed_report)
        checks.check_tightness(tight, self.cases(n, k), n, k)
        checks.check_curve(curve, csv_text, [c[1] for c in certs], n)


WORKLOADS = {w.name: w for w in (Roundtrip, VerifySweep, CertifyCurves)}
