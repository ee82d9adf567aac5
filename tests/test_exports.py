import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kcbs_qkd

MODULES = ["kcbs_qkd"] + [f"kcbs_qkd.{m.name}" for m in pkgutil.iter_modules(kcbs_qkd.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    # every exported name must exist, also after a name moves or is deleted
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists missing names {missing}"


PACKAGE = Path(kcbs_qkd.__file__).parent


def _read_names(trees) -> set[str]:
    """Every name the trees load, bare or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_private_names_are_used():
    # a top-level private function, class or constant that nothing in the
    # package reads outside its own definition is dead code
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    statements = [(module, node) for module, tree in trees.items() for node in tree.body]
    reads = {node: _read_names([node]) for _, node in statements}
    unused = []
    for module, node in statements:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        private = {n for n in names if n.startswith("_") and not n.startswith("__")}
        if private:
            read = set().union(*(read for other, read in reads.items() if other is not node))
            unused += [f"{module}: {name}" for name in sorted(private - read)]
    assert not unused, f"private names never used in the package: {unused}"


def test_source_lines_fit_100_columns():
    # the package's own line limit; a longer line hides its end in review
    long = [f"{path.name}:{number}: {len(line)} columns"
            for path in sorted(PACKAGE.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 100]
    assert not long, long


def test_public_names_are_read():
    # a module's public name that neither the package nor the benchmark reads,
    # and that the package does not re-export, is API only the tests reach
    files = [*PACKAGE.glob("*.py"), *(Path(__file__).parents[1] / "perfbench").glob("*.py")]
    read = _read_names(ast.parse(p.read_text()) for p in files)
    unread = sorted(
        f"{module}.{name}"
        for module in MODULES[1:]
        for name in importlib.import_module(module).__all__
        if name not in read and name not in kcbs_qkd.__all__
    )
    assert not unread, f"public names read only outside the package and benchmark: {unread}"


def test_cells_layout_read_by_protocol_alone():
    # protocol defines the layout of Transcript.cells and folds it; the
    # physics in adversary reads nothing of a transcript
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    imported = set()
    for node in ast.walk(trees["adversary.py"]):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported if "protocol" in name.split(".")], imported
    readers = sorted(
        f"{module}: {node.attr}"
        for module, tree in trees.items() if module != "protocol.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("cells", "_sifted")
    )
    assert not readers, f"modules other than protocol read the transcript's counts: {readers}"


def test_files_handled_by_cli_alone():
    # protocol writes the CSV to the file it is given; cli decides the paths,
    # the temporary file and the replacement.  The one open in protocol is
    # write_transcript_csv's path form, which the benchmark's per-layer run
    # calls with a path
    tree = ast.parse((PACKAGE / "protocol.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not imported & {"os", "errno", "contextlib", "pathlib", "shutil", "tempfile"}, imported
    openers = sorted(
        function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
    )
    assert openers == ["write_transcript_csv"], openers


def test_sift_rule_read_by_protocol_alone():
    # protocol turns rounds and exact probabilities into statistics through
    # the sift rule and Eve's guess; adversary defines them and the channel,
    # and holds no statistic, so the oracle is not written a second time there
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    readers = []
    for module, tree in trees.items():
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        read = (_read_names([tree]) | imported) & {"SIFT", "C3", "eve_guess"}
        if module not in ("protocol.py", "adversary.py"):
            readers += [f"{module}: {name}" for name in sorted(read)]
    assert not readers, f"modules other than protocol read the sift rule: {readers}"
    defined = {node.name for node in ast.walk(trees["adversary.py"])
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"attack_expectation", "AttackExpectation"}, defined


def test_resend_label_read_by_cli_and_strategy_alone():
    # both resend labels name one channel: the parser reads the label and
    # EveStrategy validates it, and no model code reads it, so none branches
    # on it.  The report echoes it through the strategy's fields
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    readers = []
    for module, tree in trees.items():
        if module == "cli.py":
            continue
        # adversary's statements but EveStrategy, where the label is validated
        statements = [node for node in tree.body if not (
            module == "adversary.py" and isinstance(node, ast.ClassDef)
            and node.name == "EveStrategy")]
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        read = {name for name in _read_names(statements) | imported
                if name == "resend" or name.startswith("RESEND_")}
        readers += [f"{module}: {name}" for name in sorted(read)]
    assert not readers, f"model code reads the resend label: {readers}"


# what tests/reference.py may take from the package: sift and strategy
# constants, the basis (for its rays), the random streams and the transcript
# types; nothing that computes a probability or a state, so that the tests'
# reference stays independent of the model it checks
REFERENCE_IMPORTS = {
    "kcbs_qkd.adversary": {"C3", "SIFT", "ABSENT", "FIXED", "RANDOM",
                           "RESEND_COLLAPSED", "RESEND_EIGENSTATE", "EveStrategy"},
    "kcbs_qkd.kcbs": {"KcbsBasis"},
    "kcbs_qkd.qutrit": {"RngStream"},
    "kcbs_qkd.protocol": {"Round", "Transcript"},
}


def test_reference_imports_no_model():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("kcbs_qkd"):
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, "*") for alias in node.names
                         if alias.name.startswith("kcbs_qkd")]
    assert imported, "the reference reads the basis's rays and the random streams"
    banned = [f"{module}.{name}" for module, name in imported
              if name not in REFERENCE_IMPORTS.get(module, ())]
    assert not banned, f"tests/reference.py imports {banned} from the package"
