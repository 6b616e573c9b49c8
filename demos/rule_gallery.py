"""Each reduction rule firing on the smallest graph that triggers it.

The edge, split and component rules sweep: one call makes every firing
and returns them in order.  The sunflower rule fires once per call."""

from diamondkernel import FamilySpec, Graph, Instance, run_phase1
from diamondkernel.phase1 import (rule_irrelevant_component, rule_irrelevant_edge,
                                  rule_sunflower, rule_vertex_split)

DIAMOND = FamilySpec.diamond()


def show(title, graph, k=1):
    print(f"\n== {title} (n={graph.n}, m={graph.m}, k={k})")
    return Instance(graph, k, DIAMOND)


# A path has no 4-vertex span with five edges, so no edge can ever sit in a
# forbidden pattern: both edges are irrelevant and go in one sweep.
inst = show("irrelevant edges on the path a-b-c", Graph.from_edges(3, [(0, 1), (1, 2)]))
print("deleted:", rule_irrelevant_edge(inst))

# Two adjacent vertices sharing four independent neighbors host two
# edge-disjoint diamonds through the shared edge; at k=1 that edge is forced.
g = Graph.from_edges(6, [(0, 1)] + [(0, z) for z in (2, 3, 4, 5)]
                     + [(1, z) for z in (2, 3, 4, 5)])
inst = show("sunflower on the shared edge of four diamonds", g, k=1)
print("deleted:", rule_sunflower(inst), "| budget now", inst.k)

# The bowtie center sees two triangles that never interact: the center is
# split into one clone per neighborhood component.
g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
inst = show("vertex split at the bowtie center", g)
[(v, pieces)] = rule_vertex_split(inst)
print("split vertex:", v)
print("components now:", inst.graph.connected_components())
print("provenance:", {new_id: sorted(component) for new_id, component in pieces})

# A component with no induced diamond cannot interact with the budget.
g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2),
                         (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)])
inst = show("irrelevant component: triangle next to a diamond", g)
print("deleted components:", [sorted(c) for c in rule_irrelevant_component(inst)])

# The driver runs all four to a fixpoint and logs every firing.
g = Graph.from_edges(8, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (5, 6), (6, 7)])
inst = show("full phase-1 driver", g, k=2)
_, log = run_phase1(inst)
print("firings:", log.counts())
print("fixpoint:", f"n={inst.graph.n}, m={inst.graph.m}, k={inst.k}")
