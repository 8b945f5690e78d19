"""What a fresh interpreter loads: ``import tropfan`` loads no module of
the library, and each one loads on first use, so that a request loads
only the modules it uses.  Each check starts its own
interpreter, since this one has long since loaded the whole library."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tropfan

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ("errors", "semiring", "intlat", "laurent", "fan", "evalmap", "morphism")


def fresh(code: str, *flags: str):
    """The JSON value that a fresh interpreter, started with flags, prints
    last running code with the library first on its path."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n{code}"
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> set:
    """The names of the library's modules loaded after code runs."""
    report = "import json, sys; print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'tropfan']))"
    return set(fresh(f"{code}\n{report}"))


def test_bare_import_loads_only_the_package():
    assert loaded_after("import tropfan") == {"tropfan"}


def test_a_request_loads_no_typing():
    # every export and a member request, in a process that reads no site
    # (-S), since a site's path hooks may load typing themselves, no
    # environment (-I) and writes no bytecode (-B, which -I would otherwise
    # turn back on); a finder first on the meta path names the module
    # that first imports typing.  That is none, or on later 3.13 releases
    # (3.13.13, not 3.13.0) the standard library's inspect, which
    # dataclasses imports
    request = '["member", "fixtures/Y.json", "--values", "0,0,0"]'
    code = f"""
class FirstImporter:
    name = None

    def find_spec(self, name, path=None, target=None):
        if name == "typing":
            frame = sys._getframe(1)
            while frame.f_globals["__name__"].startswith(("importlib", "_frozen_importlib")):
                frame = frame.f_back
            FirstImporter.name = frame.f_globals["__name__"]


sys.meta_path.insert(0, FirstImporter())
from tropfan import *
from tropfan import cli
status = cli.run({request})
import json; print(json.dumps([status, FirstImporter.name]))
"""
    status, importer = fresh(code, "-S", "-I", "-B")
    assert status == 0
    assert importer in {None, "inspect"}


def test_laurent_loads_no_lattice_fan_or_cli_module():
    loaded = loaded_after("import tropfan.laurent")
    assert "tropfan.laurent" in loaded
    assert not loaded & {"tropfan.intlat", "tropfan.fan", "tropfan.evalmap", "tropfan.morphism", "tropfan.cli"}


def test_poly_eval_loads_only_what_it_uses():
    request = '["poly", "eval", "x + 1/2*y", "--point", "1,2"]'
    loaded = loaded_after(f"from tropfan import cli\nassert cli.run({request}) == 0")
    assert {"tropfan.cli", "tropfan.laurent"} <= loaded
    assert not loaded & {"tropfan.intlat", "tropfan.fan", "tropfan.evalmap", "tropfan.morphism"}


def test_each_export_is_its_home_modules_object():
    # looked up first through the package, then in every module that holds
    # the name: all hold one object
    found = fresh(f"""
import importlib, json, tropfan
exports = {{name: getattr(tropfan, name) for name in tropfan.__all__}}
modules = [importlib.import_module("tropfan." + m) for m in {LIBRARY!r}]
print(json.dumps(sorted(name for name, obj in exports.items()
                        if not any(name in vars(m) for m in modules)
                        or any(vars(m).get(name, obj) is not obj for m in modules))))
""")
    assert found == []


def test_star_import_binds_every_export():
    names = fresh("""
import json
namespace = {}
exec("from tropfan import *", namespace)
print(json.dumps(sorted(set(namespace) - {"__builtins__"})))
""")
    assert len(names) == 74
    assert names == sorted(tropfan.__all__)


def test_dir_lists_every_export_before_first_use():
    names = fresh("import json, tropfan; print(json.dumps(dir(tropfan)))")
    assert set(tropfan.__all__) <= set(names)


def test_submodules_resolve_after_a_bare_import():
    code = f"import json, tropfan; print(json.dumps([getattr(tropfan, m).__name__ for m in {LIBRARY!r}]))"
    assert fresh(code) == [f"tropfan.{m}" for m in LIBRARY]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'tropfan' has no attribute 'nope'"):
        tropfan.nope
