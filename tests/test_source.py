"""Checks on the library's source text."""

import ast
import inspect
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


def test_sequence_rule_only_in_semiring():
    # semiring.as_tuple is the one refusal of a string, a dict or a set where
    # a sequence is read; no other module tests for both str and dict
    users = sorted({path.name for path in SRC.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2 and isinstance(node.args[1], ast.Tuple)
                    and {"str", "dict"} <= {getattr(elt, "id", None) for elt in node.args[1].elts}})
    assert users == ["semiring.py"]


def test_bottom_text_compared_only_in_semiring():
    # the bottom's text is spelled once, by NEG_INF in semiring: every writer
    # prints it from there and is_bottom_text reads it from there, so no other
    # module holds the literal "-inf" (a docstring or message may mention it)
    users = sorted({path.name for path in SRC.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                    if isinstance(node, ast.Constant) and node.value == "-inf"})
    assert users == ["semiring.py"]


def test_digits_tested_by_hand_only_in_one_helper():
    # semiring.is_digits is the one test of "is a digit string", by the
    # digits that semiring.rational_text() reads too
    users = sorted({(path.name, fn.name) for path in SRC.glob("*.py")
                    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                    if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute) and node.attr in ("isdecimal", "isdigit", "isnumeric")})
    assert users == [("semiring.py", "is_digits")]


def test_no_private_names_imported():
    # a module reaches another's underscore names only where the two share
    # one algorithm: evalmap.is_smooth reads intlat's Hermite kernel without
    # a transform, and every transform it reads comes from intlat.hnf
    allowed = {("evalmap.py", "intlat", "_hnf_core")}
    found = {(path.name, node.module, alias.name) for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.ImportFrom) and node.module
             for alias in node.names if alias.name.startswith("_") and not alias.name.startswith("__")}
    assert found == allowed
    calls = [node for node in ast.walk(ast.parse((SRC / "evalmap.py").read_text(), filename="evalmap.py"))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_hnf_core"]
    empty = ast.dump(ast.List(elts=[], ctx=ast.Load()))
    assert calls and all(len(node.args) == 2 and ast.dump(node.args[1]) == empty for node in calls), \
        "evalmap builds a Hermite transform besides intlat.hnf"


def test_cli_reads_no_private_attributes():
    # the command line keeps its leaf parsers from add_parser's return value,
    # not from argparse internals that differ between Python versions
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    found = sorted({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and node.attr.startswith("_") and not node.attr.startswith("__")})
    assert not found, f"cli.py reads private attributes {found}"


def test_cli_names_each_subcommand_once():
    # cli._build_parser's table is the one home of the command line's wiring:
    # one string spells the "<group>_command" dest rule, one call sets each
    # leaf's handler, and _parse takes a leaf's starting namespace from the
    # table, naming no namespace attribute itself
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef)) and ast.get_docstring(node) is not None}

    def strings(top):
        return [node.value for node in ast.walk(top) if isinstance(node, ast.Constant)
                and isinstance(node.value, str) and id(node) not in docstrings]

    assert [text for text in strings(tree) if text.endswith("command")] == ["command"]
    handlers = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "set_defaults" and any(kw.arg == "fn" for kw in node.keywords)]
    assert len(handlers) == 1, f"cli.py sets fn at lines {handlers}"
    parse = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_parse")
    assert set(strings(parse)) == {"--="}


def test_parse_errors_come_from_one_rule():
    # outside input is read under errors.malformed, whose __exit__ turns the
    # block's errors into ParseError; the only handlers that raise ParseError
    # are the JSON file reader's and the polynomial text parser's exponent
    # one, which name the file or the factor
    allowed = {"errors.py:malformed", "cli.py:_load_json", "laurent.py:parse_poly_text"}

    def raises_parse_error(top):
        return any(isinstance(node, ast.Raise) and "ParseError" in ast.dump(node) for node in ast.walk(top))

    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(handler, ast.ExceptHandler) and raises_parse_error(handler)
                       for handler in ast.walk(node)):
                    found.add(f"{path.name}:{node.name}")
            elif isinstance(node, ast.ClassDef):
                if any(isinstance(item, ast.FunctionDef) and item.name == "__exit__" and raises_parse_error(item)
                       for item in node.body):
                    found.add(f"{path.name}:{node.name}")
    assert found <= allowed, f"ParseError raised from a handler outside the one rule: {found - allowed}"
    assert "errors.py:malformed" in found


def test_every_definition_is_used():
    # a module-level function or class of the library is named, and a method
    # reached as an attribute, somewhere in the library, its tests, the
    # benchmark or the scripts; dunder methods, and a module's own __getattr__
    # and __dir__ (PEP 562), are reached by the language.  A name in the
    # package's __all__ is named: that is how the package exports it
    import tropfan

    trees = [ast.parse(path.read_text(), filename=str(path))
             for top in ("src", "tests", "bench", "scripts") for path in sorted((ROOT / top).rglob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    named = {node.id for node in nodes if isinstance(node, ast.Name)}
    named |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
    named |= set(tropfan.__all__)
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    unused = []
    defs = (ast.FunctionDef, ast.ClassDef)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, defs) and node.name not in named | attributes | {"__getattr__", "__dir__"}:
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


def test_no_module_imports_typing():
    # annotations are never evaluated (every annotated module has
    # ``from __future__ import annotations``), so the library needs no typing
    found = sorted(f"{path.name}:{node.lineno}" for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                   if isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "typing" for a in node.names)
                   or isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "typing")
    assert not found, f"imports of typing at {found}"


def test_lp_imports_no_library_module():
    # the exact LP takes integer rows in a Tableau and nothing else: no
    # rational constraint reaches it, so it needs no rational-to-integer
    # rule from semiring, nor any other module of the library
    tree = ast.parse((SRC / "_lp.py").read_text(), filename="_lp.py")
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "tropfan")
             or isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "tropfan" for a in node.names)]
    assert not lines, f"_lp.py: imports of the library at lines {lines}"


def _api_line(name, obj):
    """One line of the public API: a function's signature; a class's
    signature, or its bases where its constructor is a builtin one, and the
    public names that it and its library bases define; any other value's
    type."""
    if inspect.isfunction(obj):
        return f"{name}{inspect.signature(obj)}"
    if not inspect.isclass(obj):
        return f"{name}: {type(obj).__name__}"
    own = [c for c in obj.__mro__ if c.__module__.startswith("tropfan")]
    if any("__init__" in vars(c) for c in own):
        head = str(inspect.signature(obj))
    else:
        head = f"({', '.join(base.__name__ for base in obj.__bases__)})"
    members = sorted({key for c in own for key in vars(c) if not key.startswith("_")})
    return " ".join([f"class {name}{head}:", *members])


def test_public_api_is_pinned():
    # the exported names, the signature of each exported function and class,
    # and the public names of each exported class, against the committed
    # list in public_api.txt: a change to the API must edit that list
    import tropfan

    got = [_api_line(name, getattr(tropfan, name)) for name in sorted(tropfan.__all__)]
    assert got == (ROOT / "tests" / "public_api.txt").read_text().splitlines()
