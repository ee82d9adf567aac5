"""Exact graph algorithms over measurement-compatibility structures.

Vertices stand for projective measurements.  Edges carry one of two kinds:
``EXCLUSIVE`` (orthogonal outcomes, which implies joint measurability) or
``COMPATIBLE`` (jointly measurable but not mutually exclusive).  Every
exclusive edge therefore also counts as compatible.

All searches are exact.  The independence number is a branch and bound,
exponential in the worst case; the scenario graphs of interest have 10
vertices, and a graph of more than ``MAX_VERTICES`` raises an error.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType

__all__ = [
    "EdgeKind",
    "ContextGraph",
    "MonogamyCertificate",
    "GraphTooLargeError",
    "MonogamyCheckError",
    "independence_number",
    "is_chordal",
    "joint_commutation_graph",
    "verify_monogamy_decomposition",
    "certificate_from_graph_document",
]

MAX_VERTICES = 32


class GraphTooLargeError(ValueError):
    """Raised when a graph has more than ``MAX_VERTICES`` vertices."""


class MonogamyCheckError(RuntimeError):
    """Raised when a monogamy-certificate predicate fails."""

    def __init__(self, predicate: str, message: str) -> None:
        super().__init__(f"{predicate}: {message}")
        self.predicate = predicate


class EdgeKind(enum.Enum):
    EXCLUSIVE = "exclusive"
    COMPATIBLE = "compatible"


def _integer(what: str, value) -> int:
    """``value`` if it is an int and not a bool: nothing is coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ContextGraph:
    """A simple graph with typed edges over measurement vertices."""

    n: int
    labels: tuple[str, ...]
    edges: Mapping[frozenset[int], EdgeKind]  # kept as a read-only copy
    # the edges as sorted (u, v, kind) triples, u < v: their JSON form
    _edge_triples: tuple[tuple[int, int, str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0 or self.n > MAX_VERTICES:
            raise GraphTooLargeError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        if len(self.labels) != self.n:
            raise ValueError("label count must equal vertex count")
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError(f"self-loop or malformed edge {set(edge)}")
            if not all(0 <= v < self.n for v in edge):
                raise ValueError(f"edge {set(edge)} references unknown vertex")
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        object.__setattr__(self, "_edge_triples", tuple(sorted(
            (*sorted(edge), kind.value) for edge, kind in self.edges.items()
        )))

    def adjacency(self, kind: EdgeKind) -> list[int]:
        """Per-vertex neighbor bitmasks restricted to the given edge kind.

        COMPATIBLE adjacency includes exclusive edges (exclusivity implies
        joint measurability); EXCLUSIVE adjacency is exclusive edges only.
        """
        adj = [0] * self.n
        for edge, ek in self.edges.items():
            if kind is EdgeKind.EXCLUSIVE and ek is not EdgeKind.EXCLUSIVE:
                continue
            u, v = sorted(edge)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def induced(self, vertices: tuple[int, ...]) -> "ContextGraph":
        index = {v: i for i, v in enumerate(vertices)}
        edges = {
            frozenset((index[u], index[v])): kind
            for (u, v), kind in ((tuple(e), k) for e, k in self.edges.items())
            if u in index and v in index
        }
        return ContextGraph(
            n=len(vertices),
            labels=tuple(self.labels[v] for v in vertices),
            edges=edges,
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "labels": list(self.labels),
            "edges": list(self._edge_triples),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ContextGraph":
        if not isinstance(doc, dict):
            raise ValueError("graph document must be a JSON object with keys n, labels, edges, "
                             f"got {type(doc).__name__}")
        missing = [key for key in ("n", "labels", "edges") if key not in doc]
        if missing:
            raise ValueError(f"graph document lacks {', '.join(missing)}")
        n, labels, triples = _integer("n", doc["n"]), doc["labels"], doc["edges"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ValueError(f"labels must be a list of strings, got {labels!r}")
        if not isinstance(triples, list):
            raise ValueError(f"edges must be a list of [u, v, kind] triples, got {triples!r}")
        edges: dict[frozenset[int], EdgeKind] = {}
        for triple in triples:
            if not isinstance(triple, (list, tuple)) or len(triple) != 3:
                raise ValueError(f"each edge must be a [u, v, kind] triple, got {triple!r}")
            u, v, kind = triple
            edge = frozenset((_integer("edge vertex", u), _integer("edge vertex", v)))
            if edge in edges:
                raise ValueError(f"edge {sorted(edge)} listed more than once")
            edges[edge] = EdgeKind(kind)
        return cls(n=n, labels=tuple(labels), edges=edges)


def independence_number(g: ContextGraph) -> int:
    """Exact maximum independent-set size w.r.t. the exclusive edges."""
    adj = g.adjacency(EdgeKind.EXCLUSIVE)

    def search(candidates: int, size: int, best: int) -> int:
        if candidates == 0:
            return max(best, size)
        # bound: even taking every remaining candidate cannot beat best
        if size + bin(candidates).count("1") <= best:
            return best
        v = (candidates & -candidates).bit_length() - 1
        # branch 1: include v, drop its neighbors
        best = search(candidates & ~((1 << v) | adj[v]), size + 1, best)
        # branch 2: exclude v
        return search(candidates & ~(1 << v), size, best)

    return search((1 << g.n) - 1, 0, 0)


def is_chordal(g: ContextGraph) -> bool:
    """True iff the graph (all edges) has no chordless cycle of length >= 4.

    Removes simplicial vertices (those whose remaining neighbors form a
    clique) one at a time; a graph is chordal iff this removes every vertex.
    """
    adj = g.adjacency(EdgeKind.COMPATIBLE)
    remaining = (1 << g.n) - 1
    while remaining:
        for v in range(g.n):
            around = adj[v] & remaining
            if remaining >> v & 1 and all(
                around & ~adj[u] == 1 << u for u in range(g.n) if around >> u & 1
            ):
                remaining &= ~(1 << v)
                break
        else:
            return False
    return True


# --- the joint Alice-Bob / Alice-Eve scenario ------------------------------

PAPER_ABSTRACT = "paper-abstract"
MIMIC = "mimic"
CUSTOM = "custom"  # the mode of every certificate of a user-supplied graph

_BOB = [f"Π_{i}" for i in range(5)]
_EVE = [f"Π^E_{i}" for i in range(5)]


def joint_commutation_graph(mode: str = PAPER_ABSTRACT) -> ContextGraph:
    """The 10-vertex commutation graph of the two overlapping pentagon tests.

    Vertices 0..4 are Bob's projectors, 5..9 Eve's.  Each Bob vertex i is
    joined to its pentagon neighbors, to Eve's neighbors i±1, and to Eve's
    own copy i.  In ``paper-abstract`` mode every edge acts as an exclusivity
    constraint; in ``mimic`` mode the same-index cross edge is compatible but
    not exclusive (when Eve reuses Bob's projectors, projector i commutes
    with its own copy without being orthogonal to it).
    """
    if mode not in (PAPER_ABSTRACT, MIMIC):
        raise ValueError(f"unknown mode {mode!r}")
    edges: dict[frozenset[int], EdgeKind] = {}
    for i in range(5):
        j = (i + 1) % 5
        edges[frozenset((i, j))] = EdgeKind.EXCLUSIVE          # Bob pentagon
        edges[frozenset((5 + i, 5 + j))] = EdgeKind.EXCLUSIVE  # Eve pentagon
        edges[frozenset((i, 5 + j))] = EdgeKind.EXCLUSIVE      # cross i, i+1
        edges[frozenset((j, 5 + i))] = EdgeKind.EXCLUSIVE      # cross i, i-1
        edges[frozenset((i, 5 + i))] = (
            EdgeKind.EXCLUSIVE if mode == PAPER_ABSTRACT else EdgeKind.COMPATIBLE
        )
    return ContextGraph(n=10, labels=tuple(_BOB + _EVE), edges=edges)


# Decomposition of the joint graph into two 5-vertex chordal parts:
# part 1 = {Eve 0, Bob 2, Eve 1, Bob 1, Eve 2}, part 2 = the rest.
_PART_1 = (5, 2, 6, 1, 7)
_PART_2 = (0, 3, 8, 4, 9)


@dataclass(frozen=True)
class MonogamyCertificate:
    """A verified two-part chordal decomposition of a joint graph, with the
    independence number of the whole graph as ``deterministic_max``."""

    joint_graph: ContextGraph
    parts: tuple[tuple[int, ...], tuple[int, ...]]
    chordal: tuple[bool, bool]
    alpha: tuple[int, int]
    bound: float
    deterministic_max: int
    mode: str

    def to_json_dict(self) -> dict:
        return {
            "joint_graph": self.joint_graph.to_json_dict(),
            "parts": [list(p) for p in self.parts],
            "chordal": list(self.chordal),
            "alpha": list(self.alpha),
            "bound": self.bound,
            "deterministic_max": self.deterministic_max,
            "mode": self.mode,
        }


def _build_certificate(
    g: ContextGraph,
    parts: tuple[tuple[int, ...], tuple[int, ...]],
    mode: str,
    expected_alpha: tuple[int, int] | None,
) -> MonogamyCertificate:
    counts = Counter(v for part in parts for v in part)
    unknown = sorted(counts.keys() - range(g.n))
    if unknown:
        raise MonogamyCheckError("parts_vertices", f"vertices {unknown} not in 0..{g.n - 1}")
    # a repeat inside one part counts too: induced() would make it a new vertex
    repeated = sorted(v for v, count in counts.items() if count > 1)
    if repeated:
        raise MonogamyCheckError("parts_disjoint", f"vertices {repeated} repeated")
    uncovered = sorted(set(range(g.n)) - counts.keys())
    if uncovered:
        raise MonogamyCheckError("parts_cover", f"vertices {uncovered} uncovered")
    subgraphs = [g.induced(part) for part in parts]
    chordal = tuple(is_chordal(sub) for sub in subgraphs)
    if not all(chordal):
        bad = [i for i, c in enumerate(chordal) if not c]
        raise MonogamyCheckError("parts_chordal", f"subgraph(s) {bad} not chordal")
    alpha = tuple(independence_number(sub) for sub in subgraphs)
    if expected_alpha is not None and alpha != expected_alpha:
        raise MonogamyCheckError(
            "independence_numbers", f"expected {expected_alpha}, got {alpha}"
        )
    bound = sum(alpha) / 5.0
    return MonogamyCertificate(
        joint_graph=g,
        parts=parts,
        chordal=chordal,  # type: ignore[arg-type]
        alpha=alpha,  # type: ignore[arg-type]
        bound=bound,
        deterministic_max=independence_number(g),
        mode=mode,
    )


@cache
def verify_monogamy_decomposition(mode: str = PAPER_ABSTRACT) -> MonogamyCertificate:
    """Build and verify the two-part chordal decomposition of the joint graph.

    In paper-abstract mode every check is hard: both parts chordal, both with
    independence number 2, so the normalized bound is 4/5.  In mimic mode the
    structural checks (partition, chordality) still apply but the independence
    numbers are reported as computed rather than asserted.  Built once per
    mode and process; the certificate is immutable, so every caller shares it.
    """
    g = joint_commutation_graph(mode)
    expected = (2, 2) if mode == PAPER_ABSTRACT else None
    return _build_certificate(g, (_PART_1, _PART_2), mode, expected)


def certificate_from_graph_document(doc: dict) -> MonogamyCertificate:
    """Verify a user-supplied graph + two-part decomposition (JSON document).

    Expected keys: ``n``, ``labels``, ``edges`` (triples [u, v, kind]) and
    ``parts`` (two vertex lists).  Structural checks are hard errors; the
    independence numbers and bound are reported as computed, under the mode
    ``custom`` whatever the document says.
    """
    g = ContextGraph.from_json_dict(doc)
    parts = doc.get("parts")
    if not isinstance(parts, list) or len(parts) != 2:
        raise ValueError("document must supply exactly two parts")
    parts_t = tuple(tuple(_integer("part vertex", v) for v in part) for part in parts)
    return _build_certificate(g, parts_t, CUSTOM, None)
