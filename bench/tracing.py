"""Span recorder for the traced benchmark round.

The program itself is not changed: ``install`` replaces each traced
function, at every ``cycleres`` module binding that holds it (or on its
class, for methods), with a wrapper that records one span per call.  A
span is a name, a start, an end and the index of the span that was open
when it began.  Spans stay in memory as parallel lists until the round
ends.  A layer's self time is its spans' durations minus the part of
each interval that child spans cover, so the self times of all names sum
to the duration of the root span, ``bench.self``, which encloses the
round's CLI calls.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "bench.self"
# Counter hooks run inside this span, so their cost is not charged to a layer.
COUNT = "trace.count"


def _build(counts, args, X):
    counts["associahedron.build.faces"] += len(X)
    counts["associahedron.build.covers"] += len(X.covers)


def _restrict(counts, args, R):
    counts["associahedron.restrict.faces_kept"] += len(R)


def _chain_complex_init(counts, args, _):
    counts["homology.cells"] += sum(len(basis) for basis in args[0].bases.values())


def _rank_int(counts, args, _):
    rows = args[0]
    counts["homology.rank_int.entries"] += len(rows) * len(rows[0]) if rows else 0


def _greedy_extend(counts, args, extended):
    matching, X = args[0], args[1]
    counts["morse.extend_added"] += len(extended) - len(matching)
    faces = X.faces
    counts["morse.extend_candidates"] += sum(
        1 for lo, hi in X.covers if faces[lo].label == faces[hi].label
    )


def _enumerate_syt(counts, args, tableaux):
    counts["tableaux.tableaux"] += len(tableaux)


# span name -> (module, attribute or Class.method, counter hook)
LAYERS = {
    "cli.self": ("cycleres.cli", "main", None),
    "polygon.iter_noncrossing": ("cycleres.polygon", "iter_noncrossing", None),
    "associahedron.build": ("cycleres.associahedron", "build", _build),
    "associahedron.restrict": ("cycleres.associahedron", "restrict", _restrict),
    "associahedron.covers_below": ("cycleres.associahedron", "LabeledComplex.covers_below", None),
    "associahedron.f_vector": ("cycleres.associahedron", "LabeledComplex.f_vector", None),
    "homology.chain_complex": ("cycleres.homology", "chain_complex", None),
    "homology.dd_check": ("cycleres.homology", "ChainComplex.__init__", _chain_complex_init),
    "homology.is_acyclic": ("cycleres.homology", "is_acyclic", None),
    "homology.rank_gf2": ("cycleres.homology", "rank_gf2", None),
    "homology.rank_int": ("cycleres.homology", "rank_int", _rank_int),
    "resolution.self": ("cycleres.resolution", "verify_supports_resolution", None),
    "resolution.cone_check": ("cycleres.resolution", "_cone_agrees", None),
    "resolution.minimality_witnesses": ("cycleres.resolution", "minimality_witnesses", None),
    "morse.d2_matching": ("cycleres.morse", "d2_matching", None),
    "morse.validate": ("cycleres.morse", "validate", None),
    "morse.greedy_extend": ("cycleres.morse", "greedy_extend", _greedy_extend),
    "morse.critical_cells": ("cycleres.morse", "critical_cells", None),
    "tableaux.enumerate_syt": ("cycleres.tableaux", "enumerate_syt", _enumerate_syt),
    "tableaux.involution": ("cycleres.tableaux", "involution", None),
    "tableaux.restricts_to_syzygy": ("cycleres.tableaux", "restricts_to_syzygy", None),
    "betti.betti_table": ("cycleres.betti", "betti_table", None),
}
# iter_noncrossing returns a generator; its span covers each step, not the call.
GENERATORS = {"polygon.iter_noncrossing": "polygon.dissections"}
SPAN_NAMES = [ROOT, COUNT, *LAYERS]

# Calls counted by span, under the metric name the benchmark reports.
CALLS = {
    "associahedron.build.calls": "associahedron.build",
    "associahedron.restrict.calls": "associahedron.restrict",
    "homology.rank_gf2.calls": "homology.rank_gf2",
    "homology.rank_int.calls": "homology.rank_int",
    "resolution.homology_checks": "homology.is_acyclic",
    "tableaux.involution.calls": "tableaux.involution",
}
COUNTS = [
    "polygon.dissections",
    "associahedron.build.faces",
    "associahedron.build.covers",
    "associahedron.restrict.faces_kept",
    "homology.cells",
    "homology.rank_int.entries",
    "tableaux.tableaux",
]

# (metric, unit, better): every per-layer metric a traced run reports.
PER_LAYER = (
    [(f"{name}.s", "s", "lower") for name in SPAN_NAMES]
    + [(metric, "count", "lower") for metric in [*CALLS, *COUNTS]]
    + [
        ("morse.extend_accept_ratio", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.solve_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    """Spans as parallel lists (name, start, end, parent index; -1 at the root)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._open.pop()

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


def _traced(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(i)
        if hook is not None:
            j = tracer.begin(COUNT)
            hook(tracer.counts, args, result)
            tracer.end(j)
        return result

    return wrapper


def _traced_generator(tracer: Tracer, name: str, fn, counter: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        steps = fn(*args, **kwargs)

        def traced_steps():
            while True:
                i = tracer.begin(name)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    tracer.end(i)
                tracer.counts[counter] += 1
                yield item

        return traced_steps()

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS for the rest of this process."""
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "cycleres"]
    for name, (module, attr, hook) in LAYERS.items():
        owner = sys.modules[module]
        *cls, fn_name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = getattr(owner, fn_name)
        if name in GENERATORS:
            wrapper = _traced_generator(tracer, name, original, GENERATORS[name])
        else:
            wrapper = _traced(tracer, name, original, hook)
        if cls:
            setattr(owner, fn_name, wrapper)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[tuple[str, float, float, int]], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round, except the overhead."""
    self_by_name: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
    calls: Counter[str] = Counter()
    for (name, _, _, _), s in zip(spans, self_times(spans)):
        self_by_name[name] += s
        calls[name] += 1
    metrics: dict[str, float] = {f"{name}.s": s for name, s in self_by_name.items()}
    metrics.update({metric: calls[name] for metric, name in CALLS.items()})
    metrics.update({metric: counts.get(metric, 0) for metric in COUNTS})
    candidates = counts.get("morse.extend_candidates", 0)
    metrics["morse.extend_accept_ratio"] = (
        counts.get("morse.extend_added", 0) / candidates if candidates else 0.0
    )
    metrics["trace.spans"] = len(spans)
    root = [end - start for name, start, end, parent in spans if parent < 0]
    metrics["trace.solve_s"] = sum(root)
    metrics["trace.self_sum_s"] = sum(self_by_name.values())
    return metrics
