"""Per-layer tracing from outside the program.

Each public function is replaced, for the length of a traced loop, under the
name its caller looks it up by: `decode` finds `recover_cross_subfiles` as a
module global of `coded_placement`, `cli` and `verify` reach `place` as an
attribute of the `coded_placement` module, and `coded_placement` and
`baselines` bind the `vec_*` helpers by name. Nothing under `src/` changes.

Spans (name, start, end, parent, op) are kept in memory and written out at
the end. The `vec_*` helpers, `_inverse_table` and the `enumerate_demands`
generator run up to millions of times per run, so they feed counters (calls,
symbols, seconds) instead of spans; their time stays inside the self time of
the span that called them. A span's self time is its duration minus its
children's, so the self times of one op's spans add up to that op's time.

Two steps have no public name to wrap and are reported by subtraction:
`cli._filler` (inside `cli.roundtrip.self_s`) and
`coded_placement._recover_own_subfiles` (inside
`coded_placement.decode.self_s`).
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from cachewright import baselines, cli, coded_placement, converse, model, tradeoff, verify

ROOT = "op"
VEC_HELPERS = ("vec_add", "vec_sub", "vec_scale", "vec_zero")

# Every per-layer metric, with its unit, in the order it is printed. Times
# (wall seconds of the traced loop), counts and bytes are per timed op (loop
# total / ops); rates are a ratio of loop totals. A layer a workload never
# enters reads 0.
METRICS = {
    "cli.roundtrip.self_s": "s",
    "model.split_file.s": "s",
    "model.split_file.mib_per_s": "MiB/s",
    "model.enumerate_demands.s": "s",
    "model.demands_enumerated": "count",
    "model.demand_context.s": "s",
    "field.vec.calls": "count",
    "field.vec.symbols": "count",
    "field.vec.s": "s",
    "field.vec.symbols_per_call": "count",
    "field.codec.s": "s",
    "coded_placement.place.s": "s",
    "coded_placement.cache_symbols": "count",
    "coded_placement.deliver.s": "s",
    "coded_placement.broadcast_symbols": "count",
    "coded_placement.decode.s": "s",
    "coded_placement.decode.self_s": "s",
    "coded_placement.decode.calls": "count",
    "coded_placement.recover_cross_subfiles.s": "s",
    "coded_placement.inverse_table.calls": "count",
    "coded_placement.inverse_table.s": "s",
    "baselines.man_place.s": "s",
    "baselines.man_deliver.s": "s",
    "baselines.man_decode.s": "s",
    "baselines.man_decode.calls": "count",
    "verify.run_verification.s": "s",
    "verify.self_s": "s",
    "verify.user_decodes": "count",
    "verify.user_decodes_per_s": "1/s",
    "verify.measured_point.s": "s",
    "converse.generate.s": "s",
    "converse.axioms": "count",
    "converse.check_certificate.s": "s",
    "converse.axioms_checked_per_s": "1/s",
    "converse.serialize_certificate.s": "s",
    "converse.parse_certificate.s": "s",
    "converse.cert_bytes": "bytes",
    "converse.tightness_check.s": "s",
    "tradeoff.assemble_known_curve.s": "s",
    "tradeoff.vertices": "count",
    "tradeoff.emit_csv.s": "s",
    "tradeoff.csv_rows": "count",
    "comm.broadcast_symbols_per_file_symbol": "ratio",
    "comm.wire_bytes_per_file_byte": "ratio",
    "trace.overhead_pct": "%",
}


def _cache_symbols(result, _args):
    return {"cache_symbols": sum(c.symbol_count for c in result)}


def _broadcast_symbols(result, _args):
    return {"broadcast_symbols": result.symbol_count}


def _split_bytes(_result, args):
    return {"split_bytes": len(args[0])}


def _axioms(result, _args):
    return {"axioms": len(result.axioms)}


def _axioms_checked(result, _args):
    return {"axioms_checked": result.axiom_count}


def _cert_bytes(result, _args):
    return {"cert_bytes": len(result.encode())}


def _vertices(result, _args):
    return {"vertices": len(result.vertices)}


def _csv_rows(result, _args):
    return {"csv_rows": result.count("\n") - 1}


def _cli_command(args):
    return f"cli.{args[0][0]}"


# (module, attribute, span name or a function of the call's arguments,
#  counter function or None)
SPANS = (
    (cli, "main", _cli_command, None),
    (cli, "split_file", "model.split_file", _split_bytes),
    (verify, "split_file", "model.split_file", _split_bytes),
    (model, "encode_bytes", "field.codec", None),
    (baselines, "encode_bytes", "field.codec", None),
    (coded_placement, "decode_bytes", "field.codec", None),
    (baselines, "decode_bytes", "field.codec", None),
    (coded_placement, "demand_context", "model.demand_context", None),
    (verify, "demand_context", "model.demand_context", None),
    (coded_placement, "place", "coded_placement.place", _cache_symbols),
    (coded_placement, "deliver", "coded_placement.deliver", _broadcast_symbols),
    (coded_placement, "decode", "coded_placement.decode", None),
    (coded_placement, "recover_cross_subfiles", "coded_placement.recover_cross_subfiles", None),
    (baselines, "man_place", "baselines.man_place", None),
    (baselines, "man_deliver", "baselines.man_deliver", None),
    (baselines, "man_decode", "baselines.man_decode", None),
    (cli, "run_verification", "verify.run_verification", None),
    (verify, "measured_point", "verify.measured_point", None),
    (converse, "case1_certificate", "converse.generate", _axioms),
    (converse, "case2_certificate", "converse.generate", _axioms),
    (converse, "check_certificate", "converse.check_certificate", _axioms_checked),
    (converse, "serialize_certificate", "converse.serialize_certificate", _cert_bytes),
    (converse, "parse_certificate", "converse.parse_certificate", None),
    (converse, "tightness_check", "converse.tightness_check", None),
    (tradeoff, "assemble_known_curve", "tradeoff.assemble_known_curve", _vertices),
    (tradeoff, "emit_csv", "tradeoff.emit_csv", _csv_rows),
)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        # span record: [name, start, end, parent index or -1, op index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.op = -1

    # --- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def op_span(self, op: int):
        """The root span of one timed op; its duration is the op's time."""
        self.op = op
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)

    def _roots(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == ROOT]

    def _span(self, name, fn, counter):
        counters = self.counters

        def wrapper(*args, **kwargs):
            idx = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                for key, value in counter(result, args).items():
                    counters[key] += value
            return result
        return wrapper

    def _counted(self, key, fn, symbols: bool):
        counters = self.counters
        clock = time.perf_counter
        seconds, calls, symbol_count = key + ".s", key + ".calls", key + ".symbols"

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            counters[seconds] += clock() - t0
            counters[calls] += 1
            if symbols:
                counters[symbol_count] += len(result)
            return result
        return wrapper

    def _counted_generator(self, key, fn):
        counters = self.counters
        clock = time.perf_counter
        seconds, items = key + ".s", key + ".items"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    counters[seconds] += clock() - t0
                    return
                counters[seconds] += clock() - t0
                counters[items] += 1
                yield item
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper, and restore the originals afterwards."""
        targets = [(module, attr,
                    lambda fn, name=name, counter=counter: self._span(name, fn, counter))
                   for module, attr, name, counter in SPANS]
        for module in (coded_placement, baselines):
            for attr in VEC_HELPERS:
                targets.append((module, attr, lambda fn: self._counted("field.vec", fn, True)))
        targets.append((coded_placement, "_inverse_table",
                        lambda fn: self._counted("coded_placement.inverse_table", fn, False)))
        targets.append((verify, "enumerate_demands",
                        lambda fn: self._counted_generator("model.enumerate_demands", fn)))
        # a name the program does not bind (baselines has no vec_scale) is skipped
        patches = [(module, attr, make(getattr(module, attr)))
                   for module, attr, make in targets if hasattr(module, attr)]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    # --- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def consistency_problems(self) -> list[str]:
        """Nesting faults, and ops whose span self times miss the op's time."""
        problems = []
        spans = self.spans
        for i, (name, start, end, parent, op) in enumerate(spans):
            if parent >= 0:
                _, p_start, p_end, _, p_op = spans[parent]
                if not (p_start <= start <= end <= p_end and p_op == op):
                    problems.append(f"span {i} {name} is not inside its parent")
            elif name != ROOT:
                problems.append(f"span {i} {name} has no enclosing op")
        per_op = defaultdict(float)
        for (_, _, _, _, op), own in zip(spans, self.self_times()):
            per_op[op] += own
        for root in self._roots():
            _, start, end, _, op = spans[root]
            if abs(per_op[op] - (end - start)) > 1e-9 * max(1.0, end - start) + 1e-12:
                problems.append(f"op {op}: self times add up to {per_op[op]!r}, "
                                f"op took {end - start!r}")
        return problems

    def _under(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric except the comm.* and trace.* figures."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        user_decodes = 0
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            total[name] += end - start
            own[name] += self_s
            calls[name] += 1
        for i, span in enumerate(self.spans):
            if span[0] in ("coded_placement.decode", "baselines.man_decode") \
                    and self._under(i, "verify.run_verification"):
                user_decodes += 1
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        per_op = {
            "cli.roundtrip.self_s": own["cli.roundtrip"],
            "model.split_file.s": total["model.split_file"],
            "model.enumerate_demands.s": c["model.enumerate_demands.s"],
            "model.demands_enumerated": c["model.enumerate_demands.items"],
            "model.demand_context.s": total["model.demand_context"],
            "field.vec.calls": c["field.vec.calls"],
            "field.vec.symbols": c["field.vec.symbols"],
            "field.vec.s": c["field.vec.s"],
            "field.codec.s": total["field.codec"],
            "coded_placement.place.s": total["coded_placement.place"],
            "coded_placement.cache_symbols": c["cache_symbols"],
            "coded_placement.deliver.s": total["coded_placement.deliver"],
            "coded_placement.broadcast_symbols": c["broadcast_symbols"],
            "coded_placement.decode.s": total["coded_placement.decode"],
            "coded_placement.decode.self_s": own["coded_placement.decode"],
            "coded_placement.decode.calls": calls["coded_placement.decode"],
            "coded_placement.recover_cross_subfiles.s":
                total["coded_placement.recover_cross_subfiles"],
            "coded_placement.inverse_table.calls": c["coded_placement.inverse_table.calls"],
            "coded_placement.inverse_table.s": c["coded_placement.inverse_table.s"],
            "baselines.man_place.s": total["baselines.man_place"],
            "baselines.man_deliver.s": total["baselines.man_deliver"],
            "baselines.man_decode.s": total["baselines.man_decode"],
            "baselines.man_decode.calls": calls["baselines.man_decode"],
            "verify.run_verification.s": total["verify.run_verification"],
            "verify.self_s": own["verify.run_verification"],
            "verify.user_decodes": user_decodes,
            "verify.measured_point.s": total["verify.measured_point"],
            "converse.generate.s": total["converse.generate"],
            "converse.axioms": c["axioms"],
            "converse.check_certificate.s": total["converse.check_certificate"],
            "converse.serialize_certificate.s": total["converse.serialize_certificate"],
            "converse.parse_certificate.s": total["converse.parse_certificate"],
            "converse.cert_bytes": c["cert_bytes"],
            "converse.tightness_check.s": total["converse.tightness_check"],
            "tradeoff.assemble_known_curve.s": total["tradeoff.assemble_known_curve"],
            "tradeoff.vertices": c["vertices"],
            "tradeoff.emit_csv.s": total["tradeoff.emit_csv"],
            "tradeoff.csv_rows": c["csv_rows"],
        }
        out = {key: value / ops for key, value in per_op.items()}
        out["model.split_file.mib_per_s"] = ratio(c["split_bytes"] / 2**20,
                                                  total["model.split_file"])
        out["field.vec.symbols_per_call"] = ratio(c["field.vec.symbols"], c["field.vec.calls"])
        out["verify.user_decodes_per_s"] = ratio(user_decodes,
                                                 total["verify.run_verification"])
        out["converse.axioms_checked_per_s"] = ratio(c["axioms_checked"],
                                                     total["converse.check_certificate"])
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op}\t{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
