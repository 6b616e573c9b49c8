"""Per-layer tracing from outside the library.

While a `LayerTracer` is active, every traced public function of
`diamondkernel` is replaced by a wrapper in each module that holds a
reference to it.  The library imports names with `from .x import y`, so
patching the defining module alone would miss the copies bound in the
modules that call them.  Methods of `Graph` are patched on the class.

Each wrapper records a span (name, start, end, parent span, request) in
memory, accumulates the call count and the self time (span duration minus
the time covered by its child spans), and, for the reduction rules, counts
the calls that fired.  Everything is single-threaded, so a plain stack of
open spans gives the parent of each new span.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


def _fired(result) -> bool:
    """Every traced rule returns None exactly when it did not fire."""
    return result is not None


# (module, attribute, fired predicate or None); module None marks a method of
# diamondkernel.graph.Graph.  The layer metrics are named <module>.<attribute>
# and graph.Graph.<method>.
TARGETS = (
    ("io", "parse_instance", None),
    ("io", "serialize_instance", None),
    ("phase1", "run_phase1", None),
    ("phase1", "rule_irrelevant_edge", _fired),
    ("phase1", "rule_sunflower", _fired),
    ("phase1", "rule_vertex_split", _fired),
    ("phase1", "rule_irrelevant_component", _fired),
    ("patterns", "is_core_member_edge", None),
    ("patterns", "find_induced_occurrence", None),
    ("patterns", "is_family_free", None),
    ("patterns", "greedy_packing", None),
    ("patterns", "clique_partition", None),
    ("matching", "maximum_non_matching_size", None),
    ("matching", "maximum_matching", None),
    (None, "copy", None),
    (None, "complement_restricted", None),
    (None, "induced_subgraph", None),
    (None, "neighborhood_components", None),
    (None, "connected_components", None),
    ("phase2", "kernelize", None),
    ("phase2", "compute_modulator", None),
    ("phase2", "rule_clique_reduction", _fired),
    ("phase2", "classify_clique", None),
    ("solver", "solve_branching", None),
    ("instances", "reduce_vc_to_sdfed", None),
    ("instances", "lift_solution", None),
)

# Calls made through one module's binding that are also counted under a
# second name: every search node of the branching solver makes exactly one
# occurrence search, so these calls are the solver's node count.
SITE_COUNTERS = {("solver", "find_induced_occurrence"): "solver.nodes"}

REQUEST_SPAN = "bench.request"

# Spans kept for the span table.  Later spans still count toward calls and
# times; only their rows are dropped, so a long traced pass stays small.
MAX_SPANS = 200_000


class LayerTracer:
    """Collects spans, counts and self times while installed."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.fired: Counter[str] = Counter()
        self.site_calls: Counter[str] = Counter()
        self.self_s: dict[str, float] = {}
        self.inclusive_s: dict[str, float] = {}
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.spans_dropped = 0
        self._stack: list[list] = []   # open spans: [span id, child seconds]
        self._next_id = 0
        self._request = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _enter(self) -> tuple[list, int, float]:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, parent, perf_counter()

    def _exit(self, name: str, frame: list, parent: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
        self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], parent, name, self._request, start, end))
        else:
            self.spans_dropped += 1

    def request(self, fn, *args):
        """Run one benchmark request as the root span of its own request id."""
        self._request += 1
        frame, parent, start = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(REQUEST_SPAN, frame, parent, start)

    def _wrap(self, fn, name: str, fired, site_counter: str | None):
        def traced(*args, **kwargs):
            frame, parent, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, parent, start)
            if fired is not None and fired(result):
                self.fired[name] += 1
            if site_counter is not None:
                self.site_calls[site_counter] += 1
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function in every diamondkernel module holding it."""
        import diamondkernel  # noqa: F401 - importing the package loads every layer
        from diamondkernel.graph import Graph

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "diamondkernel" or key.startswith("diamondkernel."))]
        for home, attr, fired in TARGETS:
            name = f"{home or 'graph.Graph'}.{attr}"
            if home is None:
                original = Graph.__dict__[attr]
                self._patch(Graph, attr, self._wrap(original, name, fired, None))
                continue
            original = getattr(sys.modules[f"diamondkernel.{home}"], attr)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    site = SITE_COUNTERS.get((module.__name__.rpartition(".")[2], attr))
                    self._patch(module, attr, self._wrap(original, name, fired, site))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Exact call and firing counts, keyed like the layer metrics."""
        out = {f"{name}.calls": n for name, n in self.calls.items() if name != REQUEST_SPAN}
        out.update({f"{name}.fired": n for name, n in self.fired.items()})
        out.update(self.site_calls)
        return dict(sorted(out.items()))

    def span_table(self) -> dict:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "columns": ["id", "parent", "name", "request", "start_s", "end_s"],
            "names": names,
            "rows": [[sid, parent, index[name], req, start, end]
                     for sid, parent, name, req, start, end in self.spans],
            "dropped": self.spans_dropped,
        }
