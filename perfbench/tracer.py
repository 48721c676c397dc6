"""Per-layer timing of valnet from outside, by wrapping names between modules.

Each hook replaces one public name as it is bound in the calling module (for
example ``valnet.solver.marginalize``, which the solver looks up at call
time), so the wrapper sees exactly the calls that cross that boundary.  A
span's self time is its duration minus the durations of the spans nested in
it.  ``valnet.model`` has no such boundary: its cost stays inside the self
time of the calculus and valuation spans that call it.

A hook whose name no longer exists raises at construction; a benchmark that
expects a hook to fire checks ``calls`` afterwards.  Neither case is ever
reported as a zero.

Run as a script, this module is the traced command-line launcher:

    python -X importtime perfbench/tracer.py solve problems/wildcatter.vn

It imports ``valnet.cli``, installs the hooks, runs the command with its
normal stdout, and writes one ``perfbench-trace {json}`` line to stderr.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TRACE_PREFIX = "perfbench-trace "


def _combine_span(args, kwargs):
    valuations = args[0] if args else kwargs["valuations"]
    if not isinstance(valuations, (list, tuple)):
        # Reading an iterator here would leave nothing for the call itself.
        raise TypeError("expected a list of valuations, got %r" % type(valuations))
    if all(v.kind == "belief" for v in valuations):
        return "calculus.combine_belief"
    return "calculus.combine_mixed"


def _marginalize_span(args, kwargs):
    v = args[0] if args else kwargs["v"]
    return "calculus.marginalize_belief" if v.kind == "belief" else "calculus.marginalize_blend"


class Tracer:
    """Span totals, self times and counters for the calls crossing valnet's layers."""

    def __init__(self):
        # (module, attribute, span name or classifier, counter hook or None);
        # a hook without a span only counts.
        hooks = [
            ("valnet.cli", "main", "cli.main", None),
            ("valnet.cli", "parse_problem", "problemfile.parse", None),
            ("valnet.problemfile", "conditional", "valuation.conditional", self._count_balloon),
            ("valnet.cli", "validate", "network.validate", None),
            ("valnet.network", "is_conditional", "valuation.is_conditional", None),
            ("valnet.cli", "solve", "solver.solve", None),
            ("valnet.cli", "propagate_marginal", "solver.propagate_marginal", None),
            ("valnet.solver", "elimination_order", "network.elimination_order", None),
            ("valnet.solver", "build_strategy", "solver.build_strategy", None),
            ("valnet.solver", "combine_all_traced", _combine_span, self._count_step),
            ("valnet.solver", "combine_all", _combine_span, None),
            # combine_all delegates to this name in its own module, so its
            # provenance is counted here.
            ("valnet.calculus", "combine_all_traced", None, self._count_combine),
            ("valnet.solver", "marginalize", _marginalize_span, self._count_marginalize),
            ("valnet.solver", "marginalize_belief", "calculus.marginalize_belief",
             self._count_marginalize),
        ]
        self._stack = []
        self._patches = []
        for module_name, attr, span, count in hooks:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise RuntimeError(
                    "%s.%s no longer exists; the trace cannot measure that boundary"
                    % (module_name, attr)
                )
            label = "%s.%s" % (module_name, attr)
            if span is None:
                wrapper = self._counter(original, label, count)
            else:
                wrapper = self._span(original, label, span, count)
            self._patches.append((module, attr, original, wrapper))
        self.reset()

    def reset(self):
        self.ops = 0
        self.calls = {}
        self.spans = {}  # name -> [total seconds, self seconds, calls]
        self.counts = {}
        self.peaks = {"calculus.peak_focals": 0, "calculus.peak_support": 0}
        self._op_peaks = dict(self.peaks)

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def begin_op(self):
        self._op_peaks = dict.fromkeys(self.peaks, 0)

    def end_op(self):
        self.ops += 1
        for name, value in self._op_peaks.items():
            self.peaks[name] += value

    def snapshot(self):
        return {
            "ops": self.ops,
            "calls": dict(self.calls),
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
        }

    def _span(self, fn, label, span, count):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
            name = span(args, kwargs) if callable(span) else span
            record = self.spans.setdefault(name, [0.0, 0.0, 0])
            record[0] += elapsed
            record[1] += elapsed - inner
            record[2] += 1
            self.calls[label] = self.calls.get(label, 0) + 1
            if count is not None:
                count(args, kwargs, result)
            if stack:
                # Counting is charged to no span: the parent skips it too.
                stack[-1] += perf_counter() - start
            return result

        return traced

    def _counter(self, fn, label, count):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[label] = self.calls.get(label, 0) + 1
            count(args, kwargs, result)
            return result

        return counted

    def _add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _count_balloon(self, args, kwargs, potential):
        self._add("valuation.balloon_focals", len(potential.ballooned.focals))

    def _count_step(self, args, kwargs, result):
        self._add("solver.steps", 1)
        self._count_combine(args, kwargs, result)

    def _count_combine(self, args, kwargs, result):
        valuations = args[0] if args else kwargs["valuations"]
        combined, provenance = result
        self._add("calculus.combine.attempts", math.prod(len(v.focals) for v in valuations))
        self._add("calculus.combine.joint", sum(len(sources) for sources in provenance))
        self._add("calculus.combine.out_focals", len(combined.focals))
        peaks = self._op_peaks
        peaks["calculus.peak_focals"] = max(peaks["calculus.peak_focals"], len(combined.focals))
        peaks["calculus.peak_support"] = max(
            peaks["calculus.peak_support"], max(len(f.support) for f in combined.focals)
        )

    def _count_marginalize(self, args, kwargs, result):
        v = args[0] if args else kwargs["v"]
        self._add("calculus.marginalize.in_configs", sum(len(f.support) for f in v.focals))


def layer_metrics(snap):
    """Per-op layer metrics (ms and counts) from a merged snapshot."""
    ops = snap["ops"]
    spans = snap["spans"]

    def total_ms(name):
        return spans.get(name, [0.0, 0.0, 0])[0] * 1000.0 / ops

    def self_ms(name):
        return spans.get(name, [0.0, 0.0, 0])[1] * 1000.0 / ops

    def count(name):
        return snap["counts"].get(name, 0) / ops

    attempts = snap["counts"].get("calculus.combine.attempts", 0)
    joint = snap["counts"].get("calculus.combine.joint", 0)
    return {
        "cli.main.self_ms": self_ms("cli.main"),
        "problemfile.parse.self_ms": self_ms("problemfile.parse"),
        "valuation.conditional_ms": total_ms("valuation.conditional"),
        "valuation.balloon_focals": count("valuation.balloon_focals"),
        "network.validate.self_ms": self_ms("network.validate"),
        "valuation.is_conditional_ms": total_ms("valuation.is_conditional"),
        "network.elimination_order_ms": total_ms("network.elimination_order"),
        # Solver code includes build_strategy, which is also reported alone.
        "solver.self_ms": self_ms("solver.solve") + self_ms("solver.propagate_marginal")
        + total_ms("solver.build_strategy"),
        "solver.build_strategy_ms": total_ms("solver.build_strategy"),
        "solver.steps": count("solver.steps"),
        "calculus.combine_mixed_ms": total_ms("calculus.combine_mixed"),
        "calculus.combine_belief_ms": total_ms("calculus.combine_belief"),
        "calculus.marginalize_blend_ms": total_ms("calculus.marginalize_blend"),
        "calculus.marginalize_belief_ms": total_ms("calculus.marginalize_belief"),
        "calculus.marginalize.in_configs": count("calculus.marginalize.in_configs"),
        "calculus.combine.attempts": count("calculus.combine.attempts"),
        "calculus.combine.joint": count("calculus.combine.joint"),
        "calculus.combine.useful_ratio": joint / attempts,
        "calculus.combine.out_focals": count("calculus.combine.out_focals"),
        "calculus.peak_focals": snap["peaks"]["calculus.peak_focals"] / ops,
        "calculus.peak_support": snap["peaks"]["calculus.peak_support"] / ops,
    }


def merge(snapshots):
    """Sum snapshots from several workers or processes."""
    out = {"ops": 0, "calls": {}, "spans": {}, "counts": {}, "peaks": {}}
    for snap in snapshots:
        out["ops"] += snap["ops"]
        for key in ("calls", "counts", "peaks"):
            for name, value in snap[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name, (total, own, calls) in snap["spans"].items():
            record = out["spans"].setdefault(name, [0.0, 0.0, 0])
            record[0] += total
            record[1] += own
            record[2] += calls
    return out


def _launch(argv):
    import valnet.cli  # timed by -X importtime

    if argv == ["--import-only"]:
        return 0
    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    rc = valnet.cli.main(argv)
    tracer.end_op()
    tracer.uninstall()
    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps(tracer.snapshot()), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(_launch(sys.argv[1:]))
