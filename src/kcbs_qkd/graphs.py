"""Exact graph algorithms over measurement-compatibility structures.

Vertices stand for projective measurements.  Edges carry one of two kinds:
``EXCLUSIVE`` (orthogonal outcomes, which implies joint measurability) or
``COMPATIBLE`` (jointly measurable but not mutually exclusive).  Every
exclusive edge therefore also counts as compatible.

All searches are exact and exponential, which is fine: the scenario graphs of
interest have at most 10 vertices.  Hard size caps raise explicit errors.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
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
    "noncontextual_max",
    "joint_commutation_graph",
    "verify_monogamy_decomposition",
    "certificate_from_graph_document",
]

MAX_VERTICES = 32
MAX_ENUMERATION_VERTICES = 20


class GraphTooLargeError(ValueError):
    """Raised when an exact search is requested beyond its size cap."""


class MonogamyCheckError(RuntimeError):
    """Raised when a monogamy-certificate predicate fails."""

    def __init__(self, predicate: str, message: str) -> None:
        super().__init__(f"{predicate}: {message}")
        self.predicate = predicate


class EdgeKind(enum.Enum):
    EXCLUSIVE = "exclusive"
    COMPATIBLE = "compatible"


@dataclass(frozen=True)
class ContextGraph:
    """A simple graph with typed edges over measurement vertices."""

    n: int
    labels: tuple[str, ...]
    edges: Mapping[frozenset[int], EdgeKind]  # kept as a read-only copy

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
            "edges": sorted(
                [*sorted(edge), kind.value] for edge, kind in self.edges.items()
            ),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ContextGraph":
        edges: dict[frozenset[int], EdgeKind] = {}
        for u, v, kind in doc["edges"]:
            edge = frozenset((int(u), int(v)))
            if edge in edges:
                raise ValueError(f"edge {sorted(edge)} listed more than once")
            edges[edge] = EdgeKind(kind)
        return cls(n=int(doc["n"]), labels=tuple(doc["labels"]), edges=edges)


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


def noncontextual_max(g: ContextGraph) -> int:
    """Max number of 1-valued vertices over exclusivity-respecting assignments.

    Equals the exclusive-edge independence number by definition, but is kept
    as a fully independent enumeration to serve as a cross-check oracle.
    """
    if g.n > MAX_ENUMERATION_VERTICES:
        raise GraphTooLargeError(
            f"instance too large: assignment enumeration is capped at "
            f"{MAX_ENUMERATION_VERTICES} vertices, got {g.n}"
        )
    adj = g.adjacency(EdgeKind.EXCLUSIVE)
    best = 0
    for mask in range(1 << g.n):
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = max(best, bin(mask).count("1"))
    return best


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
    """A brute-force-verified decomposition certificate for the joint graph."""

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
    seen: set[int] = set()
    for part in parts:
        overlap = seen.intersection(part)
        if overlap:
            raise MonogamyCheckError("parts_disjoint", f"vertices {sorted(overlap)} repeated")
        seen.update(part)
    if seen != set(range(g.n)):
        raise MonogamyCheckError(
            "parts_cover", f"vertices {sorted(set(range(g.n)) - seen)} uncovered"
        )
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
    det_max = noncontextual_max(g)
    cross_check = independence_number(g)
    if det_max != cross_check:
        raise MonogamyCheckError(
            "deterministic_max_cross_check",
            f"assignment enumeration {det_max} != independence number {cross_check}",
        )
    return MonogamyCertificate(
        joint_graph=g,
        parts=parts,
        chordal=chordal,  # type: ignore[arg-type]
        alpha=alpha,  # type: ignore[arg-type]
        bound=bound,
        deterministic_max=det_max,
        mode=mode,
    )


@cache
def verify_monogamy_decomposition(mode: str = PAPER_ABSTRACT) -> MonogamyCertificate:
    """Build and verify the two-part chordal decomposition of the joint graph.

    In paper-abstract mode every check is hard: both parts chordal, both with
    independence number 2, normalized bound 4/5.  In mimic mode the structural
    checks (partition, chordality) still apply but the independence numbers
    are reported as computed rather than asserted.  Built once per mode and
    process; the certificate is immutable, so every caller shares it.
    """
    g = joint_commutation_graph(mode)
    expected = (2, 2) if mode == PAPER_ABSTRACT else None
    cert = _build_certificate(g, (_PART_1, _PART_2), mode, expected)
    if mode == PAPER_ABSTRACT and abs(cert.bound - 0.8) > 0:
        raise MonogamyCheckError("bound", f"expected 4/5, got {cert.bound}")
    return cert


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
    parts_t = (tuple(int(v) for v in parts[0]), tuple(int(v) for v in parts[1]))
    return _build_certificate(g, parts_t, CUSTOM, None)
