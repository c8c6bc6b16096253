"""Spans around the calls into each ``treenullity`` layer, for traced runs.

The program is not changed: :func:`install` replaces public functions at the
module boundaries with wrappers, where the callers look them up (``cli``
and ``extremal`` bind ``build_max``, ``bounds`` and friends with
``from ... import``, so those bindings are patched too), and wraps methods
of ``LabeledTree`` on the class.  Each span records name, start, end, parent
span and operation id; spans stay in memory and :meth:`Tracer.write` saves
them when the run ends.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1  # id of the operation in progress
        self._stack: list[list] = []  # [span index, child time] per open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # read off results

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                spans[index] = (name, start, end, parent[0] if parent else -1, self.op)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_rank_checks(counts: Counter, report) -> None:
    for check in report.checks:
        if check.name == "rank-cross-check":
            skipped = check.detail.startswith("skipped")
            counts["rank_checks_skipped" if skipped else "rank_checks_run"] += 1


def _count_certificates(counts: Counter, _cert) -> None:
    counts["certificates"] += 1


def _count_trees(counts: Counter, spec) -> None:
    counts["trees_visited"] += spec.total


def _count_draws(counts: Counter, scan) -> None:
    # A sampling scan that still has gaps drew all ``samples`` trees; one
    # with none may have stopped early, so it is counted apart.
    if scan.exhaustive:
        return
    counts["draws" if scan.gaps else "complete_scans"] += scan.samples
    counts["witnesses"] += sum(e is not None for e in scan.witnesses.values())


def install(tracer: Tracer, treenullity_modules) -> None:
    """Patch the layer boundaries of the imported package for ``tracer``."""
    cli, degseq, extremal, oracle, treegraph = treenullity_modules

    def patch(module, attr: str, span: str, on_result=None) -> None:
        setattr(module, attr, tracer.wrap(span, getattr(module, attr), on_result))

    patch(cli, "run", "cli.run")
    for attr in ("parse_sequence", "stats", "bounds"):
        for module in (degseq, cli, extremal, oracle):
            if hasattr(module, attr):
                patch(module, attr, f"degseq.{attr}")
    for module in (extremal, cli):
        patch(module, "build_min", "extremal.build_min", _count_certificates)
        patch(module, "build_max", "extremal.build_max", _count_certificates)
        patch(module, "verify_certificate", "extremal.verify_certificate", _count_rank_checks)
    tree = treegraph.LabeledTree
    patch(tree, "__init__", "treegraph.LabeledTree")
    for attr in ("maximum_matching", "adjacency_rank_exact", "distance", "two_coloring"):
        patch(tree, attr, f"treegraph.{attr}")
    patch(oracle, "spectrum", "oracle.spectrum", _count_trees)
    patch(oracle, "count_trees", "oracle.count_trees")
    patch(oracle, "conjecture_scan", "oracle.conjecture_scan", _count_draws)


TIMED_SPANS = (
    "cli.run",
    "extremal.build_min",
    "extremal.build_max",
    "extremal.verify_certificate",
    "treegraph.LabeledTree",
    "treegraph.maximum_matching",
    "treegraph.adjacency_rank_exact",
    "treegraph.distance",
    "treegraph.two_coloring",
    "oracle.spectrum",
    "oracle.count_trees",
    "oracle.conjecture_scan",
)
COUNTED_SPANS = (
    "cli.run",
    "treegraph.LabeledTree",
    "treegraph.maximum_matching",
    "treegraph.adjacency_rank_exact",
    "treegraph.distance",
    "oracle.count_trees",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: totals per round of the workload's inputs, and
    whole-run ratios."""
    s, c, k = tracer.self_s, tracer.calls, tracer.counts
    out = {f"{span}.self_s": (s[span] / rounds, "s") for span in TIMED_SPANS}
    out.update({f"{span}.calls": (c[span] / rounds, "count") for span in COUNTED_SPANS})
    degseq_s = sum(s[f"degseq.{f}"] for f in ("parse_sequence", "stats", "bounds"))
    out["degseq.self_s"] = (degseq_s / rounds, "s")
    for name in ("rank_checks_run", "rank_checks_skipped"):
        out[f"extremal.{name}"] = (k[name] / rounds, "count")
    out["treegraph.LabeledTree.per_certificate"] = (
        _ratio(c["treegraph.LabeledTree"], k["certificates"]),
        "ratio",
    )
    out["oracle.trees_visited"] = (k["trees_visited"] / rounds, "count")
    out["oracle.kernel_trees_per_s"] = (_ratio(k["trees_visited"], s["oracle.spectrum"]), "1/s")
    out["oracle.draws"] = (k["draws"] / rounds, "count")
    out["oracle.witness_yield"] = (_ratio(k["witnesses"], k["draws"] + k["complete_scans"]), "ratio")
    return out
