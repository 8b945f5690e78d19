"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tropfan"
PYTHON_FILES = sorted(path for top in ("src", "tests", "scripts") for path in (ROOT / top).rglob("*.py"))
# the rules for the library's own source hold for the scripts too
PROGRAM_FILES = sorted([*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")])


@pytest.mark.parametrize("path", PROGRAM_FILES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, and with them any check they make
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}; raise instead"


@pytest.mark.parametrize("path", PROGRAM_FILES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # a name in __all__ is used: that is how __init__.py re-exports
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports (line, name) {unused}"


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # requires-python is >=3.10, and a newer interpreter accepts newer syntax
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_operator_index_only_in_semiring():
    # the integer rule is semiring.as_index; every other module calls it
    users = sorted(path.name for path in SRC.glob("*.py") if "operator.index" in path.read_text())
    assert users == ["semiring.py"]


def test_bottom_text_compared_only_in_semiring():
    # the bottom's text is spelled once, by NEG_INF in semiring: every writer
    # prints it from there and is_bottom_text reads it from there, so no other
    # module holds the literal "-inf" (a docstring or message may mention it)
    users = sorted({path.name for path in SRC.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                    if isinstance(node, ast.Constant) and node.value == "-inf"})
    assert users == ["semiring.py"]


def test_no_private_names_imported():
    # a module reaches another's underscore names only where the two share
    # one algorithm: evalmap reads lattice answers off intlat's Hermite kernel
    allowed = {("evalmap.py", "intlat", "_hnf_core"), ("evalmap.py", "intlat", "_ident_list")}
    found = {(path.name, node.module, alias.name) for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.ImportFrom) and node.module
             for alias in node.names if alias.name.startswith("_") and not alias.name.startswith("__")}
    assert found == allowed


def test_parse_errors_come_from_one_rule():
    # outside input is read under errors.malformed; the only other handlers
    # that raise ParseError are the JSON file reader's and the polynomial
    # text parser's digit-limit ones, which name the file or the factor
    allowed = {"errors.py:malformed", "cli.py:_load_json", "laurent.py:_var_index",
               "laurent.py:_rational", "laurent.py:parse_poly_text"}
    found = set()
    for path in SRC.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for handler in ast.walk(func):
                    if isinstance(handler, ast.ExceptHandler) and any(
                        isinstance(node, ast.Raise) and "ParseError" in ast.dump(node) for node in ast.walk(handler)
                    ):
                        found.add(f"{path.name}:{func.name}")
    assert found <= allowed, f"ParseError raised from a handler outside the one rule: {found - allowed}"
    assert "errors.py:malformed" in found


def test_every_definition_is_used():
    # a module-level function or class of the library is named, and a method
    # reached as an attribute, somewhere in the library, its tests, the
    # benchmark or the scripts; dunder methods are reached by the language
    trees = [ast.parse(path.read_text(), filename=str(path))
             for top in ("src", "tests", "bench", "scripts") for path in sorted((ROOT / top).rglob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    named = {node.id for node in nodes if isinstance(node, ast.Name)}
    named |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    unused = []
    defs = (ast.FunctionDef, ast.ClassDef)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, defs) and node.name not in named | attributes:
                unused.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{path.name}:{node.name}.{item.name}" for item in node.body
                           if isinstance(item, defs) and not item.name.startswith("__")
                           and item.name not in attributes]
    assert not unused, f"defined and never used: {unused}"


def test_every_error_is_raised_or_inert():
    # each error class is raised somewhere in the library, or its docstring
    # says that no library function raises it (a public name kept as inert)
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    errors, silent = {"TropfanError"}, []
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) in errors for base in node.bases):
            errors.add(node.name)
            inert = "no library function raises" in " ".join((ast.get_docstring(node) or "").split())
            if node.name not in raised and not inert:
                silent.append(node.name)
    assert len(errors) > 15
    assert not silent, f"error classes neither raised nor documented as inert: {silent}"


def test_lp_imports_no_library_module():
    # the exact LP takes integer rows in a Tableau and nothing else: no
    # rational constraint reaches it, so it needs no rational-to-integer
    # rule from semiring, nor any other module of the library
    tree = ast.parse((SRC / "_lp.py").read_text(), filename="_lp.py")
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "tropfan")
             or isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "tropfan" for a in node.names)]
    assert not lines, f"_lp.py: imports of the library at lines {lines}"
