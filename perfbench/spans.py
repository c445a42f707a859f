"""Span recording and per-layer aggregation for the traced benchmark runs.

A span is one timed call into a deltoids module, named `<module>.<function>`
after the public function called.  Spans are kept in memory as plain lists
(op id, span id, parent span id, name, start, end) and written out when the
run ends.  Every op has a root span named `op`; a span's self time is its
duration minus the time covered by its direct children.

The same `Recorder` serves both sides of a traced run: the library
workloads call the library through `Recorder.call`, and the CLI replay
child wraps the functions the CLI looks up by name with `Recorder.wrap`.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Every span the benchmark can record.  Each contributes `<name>.calls`
# (calls per op) and `<name>.share` (self time over op wall time).
SPAN_NAMES = (
    "op",
    "cli.import",
    "cli.load_instance",
    "cli.render_json",
    "sets.GroupSet.of",
    "sets.build_deltoid",
    "sets.chowla_defect",
    "groups.enumerate_subgroups",
    "matching.max_matching",
    "matching.deficiency",
    "matching.deficiency_by_subsets",
    "matching.partial_matching_with_defect",
    "matching.verify_matching",
    "transform.deficiency_by_subgroups",
    "transform.best_stabilizer_pair",
    "transform.StabilizerPair.validate",
    "structure.find_witness",
    "structure.verify_witness",
    "structure.construct_deficient_pair",
    "partition.rho",
    "partition.lambda_",
    "partition.rho_by_feasibility",
    "partition.lambda_by_feasibility",
    "partition.rho_by_pairs",
    "partition.lambda_lower_bound",
    "partition.partition_left",
    "partition.partition_right",
    "partition.validate_partition",
)

# Spans that every workload records, so their busy time is never a
# constant zero; these also report `<name>.busy_s` (self seconds per op).
BUSY_SPANS = (
    "op",
    "sets.build_deltoid",
    "matching.max_matching",
    "matching.verify_matching",
    "partition.rho_by_feasibility",
    "partition.lambda_by_feasibility",
    "partition.partition_left",
    "partition.partition_right",
    "partition.validate_partition",
)

# Per-op counters: (metric name, counter key).
PER_OP_COUNTERS = (
    ("sets.build_deltoid.pairs", "sets.build_deltoid.pairs"),
    ("sets.build_deltoid.edges", "sets.build_deltoid.edges"),
    ("matching.max_matching.errors", "matching.max_matching.errors"),
    ("partition.rho_by_feasibility.errors", "partition.rho_by_feasibility.errors"),
    ("partition.lambda_by_feasibility.errors", "partition.lambda_by_feasibility.errors"),
)

# Ratios: (metric name, numerator counter, denominator counter).
RATIOS = (
    ("matching.deficiency_by_subsets.skip_ratio",
     "matching.deficiency_by_subsets.refused", "matching.deficiency_by_subsets.calls"),
    ("transform.deficiency_by_subgroups.skip_ratio",
     "transform.deficiency_by_subgroups.refused", "transform.deficiency_by_subgroups.calls"),
    ("structure.find_witness.hit_ratio",
     "structure.find_witness.hits", "structure.find_witness.calls"),
    ("groups.enumerate_subgroups.subgroups",
     "groups.enumerate_subgroups.subgroups", "groups.enumerate_subgroups.calls"),
    ("cli.exit3_ratio", "cli.exit3", "cli.ops"),
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "1/op"
        if name in BUSY_SPANS:
            units[f"{name}.busy_s"] = "s"
        units[f"{name}.share"] = "frac"
    for name, _ in PER_OP_COUNTERS:
        units[name] = "1/op"
    for name, _, _ in RATIOS:
        units[name] = "count" if name.endswith(".subgroups") else "frac"
    units["trace.overhead"] = "frac"
    units["trace.ops"] = "count"
    return units


class Recorder:
    """Spans and counters of one process; inert while `spans` is None.

    The untraced path of `call` is a plain call, made from the same frame
    as the traced path, so library code runs at the same stack depth in
    traced and untraced runs.
    """

    def __init__(self, traced: bool):
        self.spans: list[list] | None = [] if traced else None
        self.counts: Counter = Counter()
        self.op_id = None
        self.root: int | None = None  # span id of the current op
        self._stack: list[int | None] = [None]

    # --- ops ---------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        if self.spans is not None:
            self.root = self._open("op", time.perf_counter())
            self._stack = [self.root]

    def end_op(self, start: float, end: float) -> None:
        """Close the root span with the runner's own op timing."""
        if self.spans is not None:
            self.spans[self.root][4:6] = start, end
            self._stack = [None]

    def add_child_spans(self, spans: list, counts: dict) -> None:
        """Attach spans recorded by a child process under the current op."""
        if self.spans is None:
            return
        base = len(self.spans)
        for span_id, parent, name, start, end in spans:
            parent = self.root if parent is None else base + parent
            self.spans.append([self.op_id, base + span_id, parent, name, start, end])
        self.counts.update(counts)

    # --- calls -------------------------------------------------------------

    def _open(self, name: str, start: float) -> int:
        span_id = len(self.spans)
        self.spans.append([self.op_id, span_id, self._stack[-1], name, start, None])
        return span_id

    def call(self, name: str, fn, *args):
        """Call fn(*args); when traced, record a span and counters for it."""
        if self.spans is None:
            return fn(*args)
        span_id = self._open(name, time.perf_counter())
        self._stack.append(span_id)
        try:
            result = fn(*args)
        except Exception as exc:
            self._note_failure(name, exc)
            raise
        finally:
            self.spans[span_id][5] = time.perf_counter()
            self._stack.pop()
        self._note_result(name, result)
        return result

    def wrap(self, fn, name: str):
        """A stand-in for fn that records a span per outermost call."""

        def traced(*args, **kwargs):
            top = self._stack[-1]
            if top is not None and self.spans[top][3] == name:
                return fn(*args, **kwargs)  # recursion stays inside one span
            return self.call(name, lambda: fn(*args, **kwargs))

        return traced

    def _note_failure(self, name: str, exc: Exception) -> None:
        from deltoids import DeltoidError

        self.counts[f"{name}.calls"] += 1
        kind = "refused" if isinstance(exc, DeltoidError) else "errors"
        self.counts[f"{name}.{kind}"] += 1

    def _note_result(self, name: str, result) -> None:
        self.counts[f"{name}.calls"] += 1
        if name == "sets.build_deltoid":
            self.counts["sets.build_deltoid.pairs"] += result.size * result.size
            self.counts["sets.build_deltoid.edges"] += sum(r.bit_count() for r in result.rows)
        elif name == "groups.enumerate_subgroups":
            self.counts["groups.enumerate_subgroups.subgroups"] += len(result)
        elif name == "structure.find_witness" and result is not None:
            self.counts["structure.find_witness.hits"] += 1


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s[1]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[2] is not None:
            own[s[2]] -= s[5] - s[4]
    return own


def layer_metrics(spans: list, counts: Counter, overhead: float) -> dict[str, float]:
    """Per-layer metrics over the op spans of a traced run."""
    op_spans = [s for s in spans if s[3] == "op"]
    ops = len(op_spans)
    wall = sum(s[5] - s[4] for s in op_spans)
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    in_op = {s[0] for s in op_spans}
    for s in spans:
        if s[0] in in_op:
            busy[s[3]] += own[s[1]]
            calls[s[3]] += 1
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / ops
        if name in BUSY_SPANS:
            out[f"{name}.busy_s"] = busy[name] / ops
        out[f"{name}.share"] = busy[name] / wall
    for name, key in PER_OP_COUNTERS:
        out[name] = counts[key] / ops
    for name, num, den in RATIOS:
        out[name] = counts[num] / counts[den] if counts[den] else 0.0
    out["trace.overhead"] = overhead
    out["trace.ops"] = ops
    return out
