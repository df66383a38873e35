"""Outside-in layer tracing for the traced benchmark pass.

``install()`` rebinds public names of degenkit where their callers look them
up (for example ``degenkit.correlator.canonical_form``) to wrappers that
record a span per call: name, start, end, parent span and op id.  Spans stay
in memory and are written out once, after the pass.  Hot calls that need
only a count (table lookups, key builds, oracle DP calls) get a counter and
no span.  Nothing here is imported by an untraced pass.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

from degenkit import cli, correlator, jsonio, oracle, splitting

# Span names (layer.operation); the index in this tuple is stored per span.
SPAN_NAMES = (
    "op",
    "cli.main",
    "splitting.walk",
    "splitting.enumerate",
    "splitting.orbits",
    "correlator.keys",
    "correlator.evaluate",
    "graphs.canonical",
    "graphs.relabel",
    "algebra.koszul",
    "twisting.ledger",
    "oracle.table",
    "oracle.count",
    "jsonio.parse",
    "jsonio.annotate",
    "jsonio.emit",
)
_INDEX = {name: i for i, name in enumerate(SPAN_NAMES)}

COUNTERS = (
    "splitting.structures",
    "splitting.splittings",
    "splitting.orbits",
    "correlator.keys",
    "correlator.key_builds",
    "correlator.lookups",
    "graphs.canonical_calls",
    "algebra.koszul_calls",
    "twisting.ledger_calls",
    "oracle.table_keys",
    "oracle.factorization_calls",
    "oracle.factorization_misses",
    "jsonio.bytes_out",
)


class Tracer:
    """Columnar span store: one entry per call in five parallel arrays."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.current_op = -1
        self.counts = Counter({c: 0 for c in COUNTERS})
        self.op_counts = {}  # op id -> Counter, for per-op checks
        self._patched = []

    def begin_op(self, op_id):
        """Close the previous op span and open one for ``op_id`` (None ends)."""
        if self.stack[-1] != -1:
            self.end[self.stack.pop()] = time.perf_counter()
        if op_id is None:
            self.current_op = -1
            return
        self.current_op = op_id
        self.op_counts[op_id] = Counter()
        self.stack.append(self._open("op"))

    def bump(self, key, n=1):
        self.counts[key] += n
        if self.current_op >= 0:
            self.op_counts[self.current_op][key] += n

    def _open(self, name):
        idx = len(self.start)
        self.name.append(_INDEX[name])
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    # -- wrappers ---------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, count=None):
        """Wrap owner.attr in a span; count(result) adds to the counters."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                for key, n in count(result).items():
                    self.bump(key, n)
            return result

        self._patch(owner, attr, wrapper)

    def walk(self, owner, attr):
        """Wrap a generator function; every ``next`` is one walk span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call("splitting.walk", next, it)
                except StopIteration:
                    return
                self.bump("splitting.structures")
                yield item

        self._patch(owner, attr, wrapper)

    def inside(self, name):
        """Whether a span called ``name`` is open."""
        idx = _INDEX[name]
        return any(i >= 0 and self.name[i] == idx for i in self.stack)

    def tally(self, owner, attr, counter, static=False, within=None):
        """Count calls without a span; with ``within``, only the calls made
        while a span of that name is open."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if within is None or self.inside(within):
                self.bump(counter)
            return fn(*args, **kwargs)

        self._patch(owner, attr, staticmethod(wrapper) if static else wrapper)

    def install(self):
        length = lambda key: (lambda result: {key: len(result)})  # noqa: E731
        for owner in (correlator, splitting):
            self.walk(owner, "iter_structures")
            self.span(owner, "canonical_form", "graphs.canonical",
                      lambda r: {"graphs.canonical_calls": 1})
        for owner in (correlator, jsonio):
            self.span(owner, "rank_relabeled", "graphs.relabel")
        self.span(correlator, "koszul_sign", "algebra.koszul",
                  lambda r: {"algebra.koszul_calls": 1})
        self.span(correlator, "degeneration_ledger", "twisting.ledger",
                  lambda r: {"twisting.ledger_calls": 1})
        # key builds of the key walk only, not those of evaluation's lookups
        self.tally(correlator.CorrelatorKey, "for_component", "correlator.key_builds",
                   static=True, within="correlator.keys")
        self.tally(correlator.InvariantTable, "get", "correlator.lookups")
        for owner in (correlator, cli):
            self.span(owner, "needed_keys", "correlator.keys", length("correlator.keys"))
            self.span(owner, "evaluate_degeneration", "correlator.evaluate")
        self.span(oracle, "build_p1_table", "oracle.table", length("oracle.table_keys"))
        self.span(oracle, "hurwitz_count", "oracle.count")
        dp = oracle.factorization_count

        def factorization_count(*args):
            misses = dp.cache_info().misses
            result = dp(*args)
            self.bump("oracle.factorization_calls")
            self.bump("oracle.factorization_misses", dp.cache_info().misses - misses)
            return result

        self._patch(oracle, "factorization_count", factorization_count)
        self.span(cli, "enumerate_splittings", "splitting.enumerate",
                  length("splitting.splittings"))
        self.span(cli, "orbits", "splitting.orbits", length("splitting.orbits"))
        for attr in ("problem_from_dict", "insertions_from_list", "table_from_obj"):
            self.span(jsonio, attr, "jsonio.parse")
        self.span(jsonio, "splittings_to_obj", "jsonio.annotate")
        for attr in ("result_to_obj", "keys_to_obj"):
            self.span(jsonio, attr, "jsonio.emit")
        self.span(jsonio, "dumps", "jsonio.emit",
                  lambda r: {"jsonio.bytes_out": len(r.encode())})
        self.span(cli, "main", "cli.main")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def span_summary(self):
        """Per span name: calls, inclusive seconds, and self seconds (minus
        the time of child spans)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for i in range(n):
            row = out[SPAN_NAMES[self.name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def layer_metrics(self):
        """The per-layer metrics of BENCHMARK.json, from the counters and spans."""
        spans = self.span_summary()
        total = {name: row["total_s"] for name, row in spans.items()}
        self_time = {name: row["self_s"] for name, row in spans.items()}
        c = self.counts
        return {
            "splitting.structures": c["splitting.structures"],
            "splitting.walk_s": total["splitting.walk"],
            "splitting.enumerate_s": total["splitting.enumerate"],
            "splitting.splittings": c["splitting.splittings"],
            "splitting.orbits_s": total["splitting.orbits"],
            "splitting.orbits": c["splitting.orbits"],
            "correlator.keys_s": total["correlator.keys"],
            "correlator.keys": c["correlator.keys"],
            "correlator.key_builds": c["correlator.key_builds"],
            "correlator.key_reuse": (
                c["correlator.keys"] / c["correlator.key_builds"]
                if c["correlator.key_builds"] else 0.0
            ),
            "correlator.evaluate_s": total["correlator.evaluate"],
            "correlator.self_s": self_time["correlator.evaluate"],
            "correlator.lookups": c["correlator.lookups"],
            "graphs.canonical_calls": c["graphs.canonical_calls"],
            "graphs.canonical_s": total["graphs.canonical"],
            "graphs.relabel_s": total["graphs.relabel"],
            "algebra.koszul_calls": c["algebra.koszul_calls"],
            "algebra.koszul_s": total["algebra.koszul"],
            "twisting.ledger_calls": c["twisting.ledger_calls"],
            "twisting.ledger_s": total["twisting.ledger"],
            "oracle.table_s": total["oracle.table"],
            "oracle.table_keys": c["oracle.table_keys"],
            "oracle.count_s": total["oracle.count"],
            "oracle.factorization_calls": c["oracle.factorization_calls"],
            "oracle.factorization_misses": c["oracle.factorization_misses"],
            "jsonio.parse_s": total["jsonio.parse"],
            "jsonio.annotate_s": total["jsonio.annotate"],
            "jsonio.emit_s": total["jsonio.emit"],
            "jsonio.bytes_out": c["jsonio.bytes_out"],
            "cli.self_s": self_time["cli.main"],
        }

    def write_spans(self, path):
        """One JSON line per span: [name, start, end, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([SPAN_NAMES[self.name[i]], self.start[i], self.end[i],
                                     self.parent[i], self.op[i]]) + "\n")
