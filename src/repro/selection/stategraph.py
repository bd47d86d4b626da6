"""The state graph of Definition 3.1.

Each atom of each view is a node; join edges link positions of two atoms
of one view holding the same variable; selection edges are self-loops for
constants. The transitions of :mod:`repro.selection.transitions` are
defined over this graph; this module materializes it explicitly for
inspection, testing and documentation (the connected components of the
graph are exactly the views, since views contain no Cartesian products).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.cq import ConjunctiveQuery
from repro.rdf.terms import Term
from repro.selection.state import State


def view_adjacency(view: ConjunctiveQuery) -> dict[int, set[int]]:
    """Atom-index adjacency of one view's join graph (Definition 3.1).

    ``adjacency[i]`` holds the atoms sharing a join variable with atom
    ``i``. The join graph of a view never changes (views are immutable)
    and the same view object appears in many states during a search, so
    the adjacency is memoized on the view object; shared by the
    transition enumerator's View Break candidates and by
    :class:`StateGraph`.
    """
    adjacency = view.__dict__.get("_adjacency")
    if adjacency is None:
        adjacency = {i: set() for i in range(len(view.atoms))}
        for i, _, j, _ in view.join_graph_edges():
            adjacency[i].add(j)
            adjacency[j].add(i)
        view.__dict__["_adjacency"] = adjacency
    return adjacency


@dataclass(frozen=True, slots=True)
class Node:
    """One triple atom of one view."""

    view: str
    atom_index: int

    def __str__(self) -> str:
        return f"{self.view}.n{self.atom_index}"


@dataclass(frozen=True, slots=True)
class JoinEdge:
    """``v: n_i.a_i = n_j.a_j`` — two positions sharing a variable."""

    view: str
    left: Node
    left_attribute: str
    right: Node
    right_attribute: str

    def __str__(self) -> str:
        return (
            f"{self.view}:{self.left}.{self.left_attribute}"
            f"={self.right}.{self.right_attribute}"
        )


@dataclass(frozen=True, slots=True)
class SelectionEdge:
    """``v: n_i.a_i = c`` — a constant in an atom (a self-loop)."""

    view: str
    node: Node
    attribute: str
    constant: Term

    def __str__(self) -> str:
        return f"{self.view}:{self.node}.{self.attribute}={self.constant.n3()}"


class StateGraph:
    """The (multi)graph of a state: nodes, join edges, selection edges."""

    def __init__(self, state: State) -> None:
        self.nodes: list[Node] = []
        self.join_edges: list[JoinEdge] = []
        self.selection_edges: list[SelectionEdge] = []
        self._components: dict[str, list[Node]] = {}
        for view in state.views:
            self._add_view(view)

    def _add_view(self, view: ConjunctiveQuery) -> None:
        nodes = [Node(view.name, index) for index in range(len(view.atoms))]
        self.nodes.extend(nodes)
        self._components[view.name] = nodes
        for i, ai, j, aj in view.join_graph_edges():
            self.join_edges.append(JoinEdge(view.name, nodes[i], ai, nodes[j], aj))
        for index, attribute, constant in view.constant_occurrences():
            self.selection_edges.append(
                SelectionEdge(view.name, nodes[index], attribute, constant)
            )

    def view_component(self, view: str) -> list[Node]:
        """The nodes of one view — one connected component of the graph."""
        return list(self._components[view])

    def connected_components(self) -> list[list[Node]]:
        """All components; by construction, one per view."""
        return [list(nodes) for nodes in self._components.values()]

    def describe(self) -> str:
        """A readable rendering of nodes and labeled edges."""
        lines = ["nodes: " + ", ".join(str(n) for n in self.nodes)]
        for edge in self.join_edges:
            lines.append(f"join edge      {edge}")
        for edge in self.selection_edges:
            lines.append(f"selection edge {edge}")
        return "\n".join(lines)
