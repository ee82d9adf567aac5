import json
from itertools import combinations

import numpy as np
import pytest

from kcbs_qkd.graphs import (
    MIMIC,
    PAPER_ABSTRACT,
    ContextGraph,
    EdgeKind,
    MonogamyCheckError,
    certificate_from_graph_document,
    independence_number,
    is_chordal,
    joint_commutation_graph,
    verify_monogamy_decomposition,
)


def graph(n, pairs, kind=EdgeKind.EXCLUSIVE, labels=None):
    return ContextGraph(
        n=n,
        labels=tuple(labels or (f"v{i}" for i in range(n))),
        edges={frozenset(p): kind for p in pairs},
    )


PENTAGON = graph(5, [(i, (i + 1) % 5) for i in range(5)])


def brute_force_alpha(g: ContextGraph, kind: EdgeKind) -> int:
    """Independent oracle: check all vertex subsets."""
    adj = g.adjacency(kind)
    best = 0
    for r in range(g.n + 1):
        for sub in combinations(range(g.n), r):
            if all(not (adj[u] >> v) & 1 for u, v in combinations(sub, 2)):
                best = max(best, r)
    return best


def naive_is_chordal(g: ContextGraph) -> bool:
    """Independent oracle: enumerate induced cycles of length >= 4."""
    adj = g.adjacency(EdgeKind.COMPATIBLE)
    for r in range(4, g.n + 1):
        for sub in combinations(range(g.n), r):
            degs = [sum((adj[u] >> v) & 1 for v in sub if v != u) for u in sub]
            if any(d != 2 for d in degs):
                continue
            edge_count = sum(degs) // 2
            if edge_count != r:
                continue
            # connected 2-regular induced subgraph = induced cycle
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                u = stack.pop()
                for v in sub:
                    if v not in seen and (adj[u] >> v) & 1:
                        seen.add(v)
                        stack.append(v)
            if len(seen) == r:
                return False
    return True


def random_graph(rng, n, p=0.4):
    pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return graph(n, pairs)


# --- independence number -----------------------------------------------------


def test_pentagon_alpha():
    assert independence_number(PENTAGON) == 2


def test_edgeless_alpha():
    assert independence_number(graph(5, [])) == 5


def test_fig3_part_alpha():
    joint = joint_commutation_graph(PAPER_ABSTRACT)
    part = joint.induced((5, 2, 6, 1, 7))
    assert independence_number(part) == brute_force_alpha(part, EdgeKind.EXCLUSIVE) == 2


def test_alpha_random_cross_check():
    rng = np.random.Generator(np.random.Philox(key=404))
    for _ in range(200):
        n = int(rng.integers(1, 13))
        g = random_graph(rng, n)
        assert independence_number(g) == brute_force_alpha(g, EdgeKind.EXCLUSIVE)


# --- chordality ----------------------------------------------------------------


def test_c4_not_chordal():
    assert not is_chordal(graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_tree_chordal():
    assert is_chordal(graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]))


def test_fig3_parts_chordal():
    joint = joint_commutation_graph(PAPER_ABSTRACT)
    for part in ((5, 2, 6, 1, 7), (0, 3, 8, 4, 9)):
        assert is_chordal(joint.induced(part))


def test_chordal_random_cross_check():
    rng = np.random.Generator(np.random.Philox(key=1234))
    for _ in range(200):
        n = int(rng.integers(1, 10))
        g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.7)))
        assert is_chordal(g) == naive_is_chordal(g)


# --- joint commutation graph ------------------------------------------------


def test_joint_graph_shape():
    g = joint_commutation_graph(PAPER_ABSTRACT)
    assert g.n == 10
    adj = g.adjacency(EdgeKind.COMPATIBLE)
    assert all(bin(adj[v]).count("1") == 5 for v in range(10))


def test_mimic_mode_exclusive_degree():
    g = joint_commutation_graph(MIMIC)
    adj = g.adjacency(EdgeKind.EXCLUSIVE)
    for i in range(5):
        assert bin(adj[i]).count("1") == 4
        assert g.edges[frozenset((i, 5 + i))] is EdgeKind.COMPATIBLE


def test_joint_graph_alpha():
    g = joint_commutation_graph(PAPER_ABSTRACT)
    assert independence_number(g) == 2
    assert brute_force_alpha(g, EdgeKind.EXCLUSIVE) == 2


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        joint_commutation_graph("bogus")


# --- monogamy certificate -----------------------------------------------------


def test_certificate_paper_abstract():
    cert = verify_monogamy_decomposition()
    assert cert.bound == 0.8
    assert cert.alpha == (2, 2)
    assert cert.chordal == (True, True)
    assert all(len(p) == 5 for p in cert.parts)
    assert cert.deterministic_max == 2
    assert cert.mode == PAPER_ABSTRACT


def test_certificate_mimic_mode():
    cert = verify_monogamy_decomposition(mode=MIMIC)
    assert cert.mode == MIMIC
    assert cert.chordal == (True, True)
    # with the same-index cross edges relaxed, the parts admit larger
    # exclusive-independent sets; reported, not asserted against the paper
    assert cert.bound >= 0.8


@pytest.mark.parametrize("mode", [PAPER_ABSTRACT, MIMIC])
def test_certificate_deterministic_max_matches_enumeration(mode):
    cert = verify_monogamy_decomposition(mode)
    assert cert.deterministic_max == brute_force_alpha(cert.joint_graph, EdgeKind.EXCLUSIVE)


def test_certificate_json_round_trip():
    cert = verify_monogamy_decomposition()
    doc = json.loads(json.dumps(cert.to_json_dict()))
    assert set(doc) == {
        "joint_graph",
        "parts",
        "chordal",
        "alpha",
        "bound",
        "deterministic_max",
        "mode",
    }
    assert doc["bound"] == 0.8
    rebuilt = ContextGraph.from_json_dict(doc["joint_graph"])
    assert rebuilt.edges == joint_commutation_graph(PAPER_ABSTRACT).edges


def test_certificate_built_once_and_immutable():
    # the certificate is cached per process, so no caller may change it
    cert = verify_monogamy_decomposition()
    assert verify_monogamy_decomposition() is cert
    with pytest.raises(TypeError):
        cert.joint_graph.edges[frozenset((0, 2))] = EdgeKind.EXCLUSIVE
    # a graph keeps its own copy of the edges it was given
    edges = {frozenset((0, 1)): EdgeKind.EXCLUSIVE}
    g = ContextGraph(n=2, labels=("a", "b"), edges=edges)
    edges[frozenset((0, 1))] = EdgeKind.COMPATIBLE
    assert g.edges[frozenset((0, 1))] is EdgeKind.EXCLUSIVE


def test_custom_document_non_chordal_rejected():
    doc = {
        "n": 4,
        "labels": ["a", "b", "c", "d"],
        "edges": [[0, 1, "exclusive"], [1, 2, "exclusive"], [2, 3, "exclusive"], [3, 0, "exclusive"]],
        "parts": [[0, 1, 2, 3], []],
    }
    with pytest.raises(MonogamyCheckError):
        certificate_from_graph_document(doc)


def test_custom_document_bad_partition_rejected():
    doc = {
        "n": 3,
        "labels": ["a", "b", "c"],
        "edges": [[0, 1, "exclusive"]],
        "parts": [[0, 1], [1, 2]],
    }
    with pytest.raises(MonogamyCheckError):
        certificate_from_graph_document(doc)


def test_custom_document_vertex_repeated_in_one_part_rejected():
    # the induced subgraph of [0, 0, 1] would hold the repeat as one more
    # isolated vertex: alpha (2, 0) and bound 0.4 in place of (1, 0) and 0.2
    base = {"n": 2, "labels": ["a", "b"], "edges": [[0, 1, "exclusive"]]}
    cert = certificate_from_graph_document({**base, "parts": [[0, 1], []]})
    assert (cert.alpha, cert.bound) == ((1, 0), 0.2)
    with pytest.raises(MonogamyCheckError, match=r"parts_disjoint: vertices \[0\] repeated"):
        certificate_from_graph_document({**base, "parts": [[0, 0, 1], []]})


def test_custom_document_mode_is_custom():
    # a relabelled mimic graph must not pass as the paper-abstract certificate
    doc = verify_monogamy_decomposition(mode=MIMIC).to_json_dict()
    doc = {**doc["joint_graph"], "parts": doc["parts"], "mode": PAPER_ABSTRACT}
    cert = certificate_from_graph_document(doc)
    assert cert.mode == "custom"
    assert cert.alpha == (3, 3)


def test_custom_document_repeated_edge_rejected():
    doc = {
        "n": 2,
        "labels": ["a", "b"],
        "edges": [[0, 1, "exclusive"], [1, 0, "compatible"]],
        "parts": [[0], [1]],
    }
    with pytest.raises(ValueError, match="more than once"):
        certificate_from_graph_document(doc)


def test_custom_document_unknown_part_vertex_rejected():
    base = {"n": 3, "labels": ["a", "b", "c"], "edges": [[0, 1, "exclusive"]]}
    for parts, unknown in (([[0, 1, 2], [7]], "[7]"), ([[0, 1, 2], [-1]], "[-1]")):
        with pytest.raises(MonogamyCheckError, match="parts_vertices") as info:
            certificate_from_graph_document({**base, "parts": parts})
        assert f"vertices {unknown} not in 0..2" in str(info.value)
