"""Spans around countgen's public entry points, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
countgen module that holds it, including modules that imported it by
name (``traces.dfa_sample``, ``pda.to_cnf``, ``cli.estimate_census``),
and wraps ``CoinSource.draw`` on the class.  A span is
``[name, start, end, parent, request, note]``; spans stay in memory and
``write`` dumps them when the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# function name -> note kept on its spans, computed from (args, result)
_NOTES = {
    "draw": lambda args, result: args[1],
    "dfa_sample": lambda args, result: result,
    "random_tree": lambda args, result: result,
    "sample_report": lambda args, result: result.value,
    "earley_count": lambda args, result: args[1],
    "count_representatives": lambda args, result: args[1],
    "build_slice_grammar": lambda args, result: result.raw_productions,
}

TRACED = {
    "dfa": ("dfa_census", "dfa_sample", "dfa_rank", "dfa_unrank"),
    "nfa": ("nfa_rank_slice", "nfa_slice_census", "nfa_sample_slice"),
    "describe": ("estimate_census", "sample_report", "exact_count"),
    "cfg": ("earley_count", "random_tree", "tree_census_table", "to_cnf"),
    "pda": ("build_slice_grammar",),
    "traces": ("count_representatives", "normal_form"),
    "pseudobool": ("eval_circuit", "derandomize", "permanent"),
    "cli": ("dispatch",),
}
DESCRIBE = {"describe.estimate_census", "describe.sample_report", "describe.exact_count"}
CARRIERS = {"cfg.random_tree", "dfa.dfa_sample"}
ORACLES = {"cfg.earley_count", "traces.count_representatives"}


class Tracer:
    def __init__(self, cg):
        self.cg = cg
        self.spans: list = []
        self.request = -1
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        note = _NOTES.get(name.rsplit(".", 1)[1])
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return wrapper

    def install(self):
        modules = [self.cg.package] + [getattr(self.cg, m) for m in vars(self.cg) if m != "package"]
        coin = self.cg.coins.CoinSource
        original = coin.draw
        coin.draw = self._wrap("coins.draw", original)
        self._undo.append((coin, "draw", original))
        for layer, names in TRACED.items():
            for fname in names:
                fn = getattr(getattr(self.cg, layer), fname)
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def self_times(self) -> list:
        spans = self.spans
        inner = [0.0] * len(spans)
        for name, start, end, parent, request, note in spans:
            if parent >= 0:
                inner[parent] += end - start
        return [s[2] - s[1] - inner[i] for i, s in enumerate(spans)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\trequest\tname\tstart\tend\n")
            for i, (name, start, end, parent, request, _) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{request}\t{name}\t{start:.9f}\t{end:.9f}\n")


def layer_metrics(tracer: Tracer, fail) -> dict:
    """Per-layer counts and self times, keyed by BENCHMARK.json names."""
    spans = tracer.spans
    self_t = tracer.self_times()
    calls: dict = defaultdict(int)
    busy: dict = defaultdict(float)
    for span, t in zip(spans, self_t):
        calls[span[0]] += 1
        busy[span[0]] += t
    bits = sum(s[5] for s in spans if s[0] == "coins.draw")
    carrier = [s for s in spans if s[0] in CARRIERS and s[3] >= 0 and spans[s[3]][0] in DESCRIBE]
    in_loops = [s for s in carrier if spans[s[3]][0] == "describe.sample_report"]
    accepted = sum(1 for s in spans if s[0] == "describe.sample_report" and s[5] is not fail)
    oracle = [s for s in spans if s[0] in ORACLES and s[3] >= 0 and spans[s[3]][0] in DESCRIBE]
    distinct = len({(s[4], s[5]) for s in oracle})
    return {
        "coins.bits": bits,
        "coins.draw_calls": calls["coins.draw"],
        "coins.draw_s": busy["coins.draw"],
        "coins.ns_per_bit": busy["coins.draw"] * 1e9 / bits if bits else 0.0,
        "dfa.census_calls": calls["dfa.dfa_census"],
        "dfa.census_s": busy["dfa.dfa_census"],
        "dfa.sample_s": busy["dfa.dfa_sample"],
        "dfa.rank_s": busy["dfa.dfa_rank"],
        "dfa.unrank_s": busy["dfa.dfa_unrank"],
        "nfa.rank_calls": calls["nfa.nfa_rank_slice"],
        "nfa.rank_s": busy["nfa.nfa_rank_slice"],
        "nfa.census_s": busy["nfa.nfa_slice_census"],
        "nfa.sample_s": busy["nfa.nfa_sample_slice"],
        "describe.carrier_draws": len(carrier),
        "describe.carrier_fails": sum(1 for s in carrier if s[5] is fail),
        "describe.accept_ratio": accepted / len(in_loops) if in_loops else 0.0,
        "describe.oracle_calls": len(oracle),
        "describe.oracle_distinct_ratio": distinct / len(oracle) if oracle else 0.0,
        "describe.self_s": sum(busy[name] for name in DESCRIBE),
        "cfg.earley_calls": calls["cfg.earley_count"],
        "cfg.earley_s": busy["cfg.earley_count"],
        "cfg.random_tree_s": busy["cfg.random_tree"],
        "cfg.tree_table_calls": calls["cfg.tree_census_table"],
        "cfg.tree_table_s": busy["cfg.tree_census_table"],
        "cfg.to_cnf_calls": calls["cfg.to_cnf"],
        "cfg.to_cnf_s": busy["cfg.to_cnf"],
        "pda.slice_grammar_calls": calls["pda.build_slice_grammar"],
        "pda.slice_grammar_s": busy["pda.build_slice_grammar"],
        "pda.raw_productions": sum(
            s[5] for s in spans if s[0] == "pda.build_slice_grammar" and s[5] is not None
        ),
        "traces.representatives_calls": calls["traces.count_representatives"],
        "traces.representatives_s": busy["traces.count_representatives"],
        "traces.normal_form_calls": calls["traces.normal_form"],
        "traces.normal_form_s": busy["traces.normal_form"],
        "pseudobool.eval_calls": calls["pseudobool.eval_circuit"],
        "pseudobool.eval_s": busy["pseudobool.eval_circuit"],
        "pseudobool.derandomize_s": busy["pseudobool.derandomize"],
        "pseudobool.permanent_s": busy["pseudobool.permanent"],
        "cli.requests": calls["cli.dispatch"],
        "cli.self_s": busy["cli.dispatch"],
    }


def kind_breakdown(tracer: Tracer, kind_of: dict) -> dict:
    """Per request kind: self seconds per span name, oracle calls and distinct args."""
    out: dict = defaultdict(lambda: {"self": defaultdict(float), "oracle": 0, "distinct": set()})
    spans = tracer.spans
    for span, t in zip(spans, tracer.self_times()):
        entry = out[kind_of[span[4]]]
        entry["self"][span[0]] += t
        if span[0] in ORACLES and span[3] >= 0 and spans[span[3]][0] in DESCRIBE:
            entry["oracle"] += 1
            entry["distinct"].add((span[4], span[5]))
    return out
