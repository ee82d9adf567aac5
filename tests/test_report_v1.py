"""Leaf-by-leaf comparison of the golden configs' reports with the v1 record.

``tests/golden/v1/`` holds the six report goldens as they stood when this
harness landed; they are never regenerated.  The byte goldens next to them
pin each (config, seed) between changes, and this test shows where a report
moved away from v1: every leaf, by its JSON path, is equal to its v1 value
unless ``REPORT_CHANGES`` declares it added, changed or removed.
"""

import importlib.resources
import json

from conftest import GOLDEN, GOLDEN_CONFIGS
from kcbs_qkd.cli import main

V1 = GOLDEN / "v1"

# JSON path (keys, and list positions as ints) -> (what happened to the
# leaf: "added", "changed" or "removed"; the ROADMAP item that did it).
REPORT_CHANGES: dict[tuple, tuple[str, str]] = {
    # v2: the package version, 0.2.0 from 0.1.0
    ("version",): ("changed", "16"),
    # v2: K(A,B) + p_E of the sacrificed rounds, which nothing bounds, and the
    # note that said so
    ("diagnostics", "kab_plus_pe_estimate"): ("removed", "16"),
    ("diagnostics", "note"): ("removed", "16"),
}

SCHEMA = json.loads(
    (importlib.resources.files("kcbs_qkd") / "schemas" / "report.schema.json").read_text()
)


def leaves(doc, path=()) -> dict:
    """Every leaf of a JSON document by its path; an empty list or object is
    a leaf too."""
    if isinstance(doc, dict) and doc:
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = enumerate(doc)
    else:
        return {path: doc}
    return {leaf: value for key, child in items
            for leaf, value in leaves(child, (*path, key)).items()}


def schema_node(path: tuple, named: bool = False):
    """The subschema that types ``path``, or None where the schema has none.
    With ``named``, a key resolves only where ``properties`` or ``required``
    names it, not through ``additionalProperties``."""
    node = SCHEMA
    for step in path:
        if isinstance(step, int):
            prefix = node.get("prefixItems", [])
            node = prefix[step] if step < len(prefix) else node.get("items")
        elif step in node.get("properties", {}):
            node = node["properties"][step]
        elif step in node.get("required", []):
            node = {}
        else:
            node = None if named else node.get("additionalProperties")
        if not isinstance(node, dict):
            return None
    return node


def same(a, b) -> bool:
    """Equal JSON values of the same type: 1, 1.0 and true differ."""
    return type(a) is type(b) and a == b


def test_report_changes_are_declared(tmp_path, capsys):
    undeclared, used = [], set()
    for name, flags in GOLDEN_CONFIGS.items():
        out = tmp_path / f"{name}.json"
        assert main(["simulate", "--rounds", "5000", *flags, "--out", str(out)]) in (0, 2, 3)
        now = leaves(json.loads(out.read_text()))
        v1 = leaves(json.loads((V1 / f"{name}.json").read_text()))
        # a v1 leaf resolves in the schema unless it was removed, which the
        # last loop holds to be gone from it
        assert all(schema_node(path) is not None for path in v1
                   if REPORT_CHANGES.get(path, ("",))[0] != "removed"), name
        for path in sorted(v1.keys() | now.keys(), key=repr):
            if path not in now:
                happened = "removed"
            elif path not in v1:
                happened = "added"
            elif not same(v1[path], now[path]):
                happened = "changed"
            else:
                continue
            if REPORT_CHANGES.get(path, ("",))[0] == happened:
                used.add(path)
            else:
                undeclared.append(f"{name}: {path} {happened}")
    capsys.readouterr()
    assert not undeclared, f"leaves that moved from v1 without a declared change: {undeclared}"
    stale = set(REPORT_CHANGES) - used
    assert not stale, f"declared changes that no report shows: {stale}"
    for path, (happened, _) in REPORT_CHANGES.items():
        if happened == "removed":
            assert schema_node(path, named=True) is None, f"removed {path} is still in the schema"
        else:
            assert schema_node(path) is not None, f"{happened} {path} is not in the schema"
