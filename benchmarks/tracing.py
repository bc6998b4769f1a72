"""In-process tracing of the package's public functions.

``Tracer.install`` replaces each traced function, at the name its caller
looks up, with a wrapper that records one span: name, start, end, parent span
and thread.  Spans stay in memory until ``write_spans``.  ``uninstall`` puts
the original functions back, so untraced calls run the unchanged program.

A span's parent is the innermost open span of its thread.  Episode worker
threads start with no open span; their spans take the innermost open span of
the thread that installed the tracer (the one blocked in the thread pool).
"""
from __future__ import annotations

import csv
import functools
import itertools
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

POLICIES = ("ucb1", "rcb-uniform", "rcb-rademacher", "ftpl-gaussian", "ftpl-double_exponential")
POTENTIALS = ("shannon", "tsallis", "ftpl")
EVT_KINDS = ("gumbel", "gamma", "weibull", "frechet", "pareto")
COMMANDS = ("stochastic", "adversarial", "evt-table", "theory-check")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    key: str  # policy label, potential kind, distribution kind or command
    work: int  # rounds, draws, table entries or blocks the call covers

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(shape) -> int:
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


def _targets():
    """(owner, attribute, span name, info) for every traced function.  ``info``
    maps the call's arguments to the span's (key, work); a call whose
    arguments it cannot read records an empty key and no work."""
    from perturbed_bandits import adversarial, choice_theory, cli, distributions, extremes, harness

    none = lambda a, k: ("", 0)  # noqa: E731
    return [
        (cli, "main", "cli.main", lambda a, k: (str((a[0] if a else k["argv"])[0]), 0)),
        (harness, "load_config", "harness.load_config", none),
        (harness, "expand_policy_entry", "harness.expand", none),
        (harness, "expand_potential_entry", "harness.expand", none),
        (harness, "run_experiment", "harness.run_experiment", none),
        (harness, "emit_csv", "harness.emit_csv", none),
        (harness, "emit_svg_lineplot", "harness.emit_svg_lineplot", none),
        (harness, "run_episode", "stochastic.run_episode", lambda a, k: (a[1].label(), a[0].horizon)),
        (harness, "run_gbpa", "adversarial.run_gbpa", lambda a, k: (a[1].kind, len(a[0]))),
        (harness, "regret_at_checkpoints", "adversarial.regret_at_checkpoints", none),
        (harness, "run_theory_checks", "choice_theory.run_theory_checks", none),
        (distributions.RewardModel, "sample_table", "distributions.sample_table",
         lambda a, k: (a[0].kind, a[2] * len(a[1]))),
        (distributions, "sample_array", "distributions.sample_array", lambda a, k: (a[0].kind, _size(a[2]))),
        (adversarial, "choice_prob_ftpl_mc", "adversarial.choice_prob_ftpl_mc", none),
        (adversarial, "choice_prob_shannon", "adversarial.choice_prob_shannon", none),
        (extremes, "verify_table1", "extremes.verify_table1", none),
        (extremes, "mc_expected_block_max", "extremes.mc_expected_block_max", lambda a, k: (a[0].kind, a[2])),
        (choice_theory, "gumbel_softmax_equivalence", "choice_theory.gumbel_softmax_equivalence", none),
        (choice_theory, "wdz_sign_change_exists", "choice_theory.wdz_sign_change_exists", none),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._home = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._home_stack[-1] if tracer._home_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                try:
                    key, work = info(args, kwargs)
                except (IndexError, KeyError, AttributeError, TypeError):
                    key, work = "", 0
                tracer.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), key, work))

        return traced

    def install(self) -> None:
        for owner, attr, name, info in _targets():
            fn = owner.__dict__.get(attr)
            if fn is None:  # no longer in the program: its metrics read 0
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "thread", "key", "work"])
            for s in self.spans:
                writer.writerow([s.id, s.name, repr(s.start), repr(s.end), s.parent, s.thread, s.key, s.work])


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    total, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[Span], traced_rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``traced_rounds`` benchmark rounds.

    Times per call are means over calls; counts are per round.  A function
    the workload never calls reads 0.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def self_time(s: Span) -> float:
        return s.duration - _covered(s, children[s.id])

    def duration(s: Span) -> float:
        return s.duration

    def calls(name: str, key: str | None = None) -> list[Span]:
        return [s for s in by_name[name] if key is None or s.key == key]

    def per_call(name: str, scale: float, timer=duration, key: str | None = None) -> float:
        group = calls(name, key)
        return scale * sum(map(timer, group)) / len(group) if group else 0.0

    def per_work(group: list[Span], timer, scale: float) -> float:
        work = sum(s.work for s in group)
        return scale * sum(map(timer, group)) / work if work else 0.0

    out: dict[str, tuple[float, str]] = {}
    out["harness.load_config.ms"] = (per_call("harness.load_config", 1e3), "ms")
    out["harness.expand.ms"] = (per_call("harness.expand", 1e3), "ms")
    out["harness.run_experiment.self_s"] = (per_call("harness.run_experiment", 1.0, self_time), "s")
    out["harness.emit_csv.ms"] = (per_call("harness.emit_csv", 1e3), "ms")
    out["harness.emit_svg_lineplot.ms"] = (per_call("harness.emit_svg_lineplot", 1e3), "ms")
    for p in POLICIES:
        group = calls("stochastic.run_episode", p)
        out[f"stochastic.run_episode.us_per_round.{p}"] = (per_work(group, duration, 1e6), "us")
        out[f"stochastic.run_episode.self_us_per_round.{p}"] = (per_work(group, self_time, 1e6), "us")
    out["stochastic.run_episode.calls"] = (len(calls("stochastic.run_episode")) / traced_rounds, "count")
    tables = calls("distributions.sample_table")
    out["distributions.sample_table.ns_per_entry"] = (per_work(tables, duration, 1e9), "ns")
    out["distributions.sample_table.mib_per_call"] = (per_call("distributions.sample_table", 8 * 2.0**-20, lambda s: s.work), "MiB")
    draws = calls("distributions.sample_array")
    out["distributions.sample_array.ns_per_draw"] = (per_work(draws, duration, 1e9), "ns")
    out["distributions.sample_array.draws"] = (sum(s.work for s in draws) / traced_rounds, "count")
    out["distributions.sample_array.calls"] = (len(draws) / traced_rounds, "count")
    for kind in POTENTIALS:
        group = calls("adversarial.run_gbpa", kind)
        out[f"adversarial.run_gbpa.us_per_round.{kind}"] = (per_work(group, duration, 1e6), "us")
        out[f"adversarial.run_gbpa.self_us_per_round.{kind}"] = (per_work(group, self_time, 1e6), "us")
    out["adversarial.choice_prob_ftpl_mc.us_per_call"] = (per_call("adversarial.choice_prob_ftpl_mc", 1e6), "us")
    out["adversarial.choice_prob_shannon.us_per_call"] = (per_call("adversarial.choice_prob_shannon", 1e6), "us")
    out["adversarial.regret_at_checkpoints.ms"] = (per_call("adversarial.regret_at_checkpoints", 1e3), "ms")
    for kind in EVT_KINDS:
        group = calls("extremes.mc_expected_block_max", kind)
        out[f"extremes.mc_expected_block_max.ns_per_block.{kind}"] = (per_work(group, duration, 1e9), "ns")
    out["extremes.verify_table1.self_ms"] = (per_call("extremes.verify_table1", 1e3, self_time), "ms")
    for name in ("run_theory_checks", "gumbel_softmax_equivalence", "wdz_sign_change_exists"):
        out[f"choice_theory.{name}.s"] = (per_call(f"choice_theory.{name}", 1.0), "s")
    for command in COMMANDS:
        out[f"cli.main.s.{command}"] = (per_call("cli.main", 1.0, key=command), "s")
    out["trace.spans"] = (len(spans) / traced_rounds, "count")
    return out
