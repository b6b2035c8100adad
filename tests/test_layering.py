"""Layering of the package, checked on the source with ``ast``.

A module's underscore names are its own: no module may import an underscore
name from another quadorbits module.  The one underscore module,
``_intpoly``, may be imported whole, and only it computes on the integer
row form, through its public names: no other module may use an underscore
name of ``_intpoly``.

No module imports a name it never uses; a name listed in ``__all__`` counts
as used (it is re-exported).

Every expression the package reads goes through one reader,
``polynomials.evaluate``: no module imports ``re``, and only
``polynomials`` imports ``ast``.

Importing ``quadorbits.cli``, which every command does, does not import
``multiprocessing``: only ``verify_theorem`` starts a process pool.  Nor
does it import ``quadorbits.verifier``: the verify verbs import it when
they run.  Nor does it import ``argparse`` or ``gettext``: the CLI reads
its arguments with its own verb table.  Nor does importing the package
import ``dataclasses`` or ``inspect``: its records are written out, not
generated.

Every module parses at the Python floor that ``requires-python`` in
pyproject.toml declares, with ``ast.parse(..., feature_version=floor)``.

Every underscore function or class defined in the package is referenced by
a ``Name`` or an ``Attribute`` somewhere in the package: no private helper
outlives its last caller.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quadorbits"
PACKAGE_NAME = "quadorbits"
INTPOLY = "quadorbits._intpoly"


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def violations(path: Path, root: Path = PACKAGE) -> list[str]:
    modname = _module_name(path, root)
    if modname == INTPOLY:
        return []
    package = modname if path.name == "__init__.py" \
        else modname.rpartition(".")[0]
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases: set[str] = set()  # local names bound to the _intpoly module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.name == INTPOLY and a.asname}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[:len(base) - node.level + 1]
                source = ".".join(base + ([node.module] if node.module else []))
            else:
                source = node.module or ""
            for a in node.names:
                if f"{source}.{a.name}" == INTPOLY:
                    aliases.add(a.asname or a.name)
                elif (source.partition(".")[0] == PACKAGE_NAME
                      and _is_private(a.name)):
                    found.append(f"{modname}:{node.lineno} imports "
                                 f"{source}.{a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _is_private(node.attr)):
            found.append(f"{modname}:{node.lineno} uses _intpoly.{node.attr}")
    return found


def test_no_module_reaches_into_private_core_names():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert any(p.name == "_intpoly.py" for p in paths)
    found = [v for p in paths for v in violations(p)]
    assert not found, found


def test_checker_sees_relative_and_aliased_uses(tmp_path):
    pkg = tmp_path / "quadorbits"
    (pkg / "verifier").mkdir(parents=True)
    bad = pkg / "verifier" / "bad.py"
    bad.write_text("from .. import _intpoly as zp\n"
                   "from .symbolic import _helper\n"
                   "from .._intpoly import _gprem, zmul\n"
                   "x = zp._private([1])\n"
                   "y = zp.zgcd([1], [1])\n"
                   "from .lemmas import _dispose_tuple, verify_lemma\n"
                   "from quadorbits.dynamics import _factor\n"
                   "from fractions import _gcd\n"
                   "from .reports import __all__\n")
    assert violations(bad, pkg) == [
        "quadorbits.verifier.bad:2 imports quadorbits.verifier.symbolic._helper",
        "quadorbits.verifier.bad:3 imports quadorbits._intpoly._gprem",
        "quadorbits.verifier.bad:6 imports quadorbits.verifier.lemmas._dispose_tuple",
        "quadorbits.verifier.bad:7 imports quadorbits.dynamics._factor",
        "quadorbits.verifier.bad:4 uses _intpoly._private",
    ]


def unused_imports(path: Path, root: Path = PACKAGE) -> list[str]:
    modname = _module_name(path, root)
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return [f"{modname}:{line} imports {name}, never used"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_an_unused_name():
    found = [v for p in sorted(PACKAGE.rglob("*.py"))
             for v in unused_imports(p)]
    assert not found, found


def test_unused_import_checker_sees_every_import_form(tmp_path):
    pkg = tmp_path / "quadorbits"
    pkg.mkdir()
    bad = pkg / "bad.py"
    bad.write_text("from __future__ import annotations\n"
                   "import os.path\n"
                   "import json as js\n"
                   "from fractions import Fraction\n"
                   "from . import _intpoly as zp\n"
                   "from .rationals import rat, rat_str as show\n"
                   "from .dynamics import MapSet\n"
                   "__all__ = ['MapSet']\n"
                   "def f(x: Fraction) -> str:\n"
                   "    return show(zp.zmul([1], [1]))\n")
    assert unused_imports(bad, pkg) == [
        "quadorbits.bad:2 imports os, never used",
        "quadorbits.bad:3 imports js, never used",
        "quadorbits.bad:6 imports rat, never used",
    ]


def imported_modules(path: Path) -> set[str]:
    """The top-level modules that path imports, relative imports aside."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_one_expression_reader():
    readers = {_module_name(p, PACKAGE): imported_modules(p) & {"re", "ast"}
               for p in sorted(PACKAGE.rglob("*.py"))}
    assert {m: r for m, r in readers.items() if r} == \
        {"quadorbits.polynomials": {"ast"}}


def test_imported_modules_sees_every_import_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os.path, re as regex\n"
                   "from ast import parse\n"
                   "from . import ast\n"
                   "def f():\n"
                   "    import json\n")
    assert imported_modules(bad) == {"os", "re", "ast", "json"}


def loaded_after(imports: str, test: str) -> str:
    """The sorted names m of sys.modules for which test holds, printed by
    a fresh interpreter after it runs ``import imports``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run(
        [sys.executable, "-c",
         f"import sys, {imports}; "
         f"print(sorted(m for m in sys.modules if {test}))"],
        env=env, capture_output=True, text=True, check=True,
        timeout=60).stdout


def test_importing_the_cli_leaves_multiprocessing_unimported():
    assert loaded_after("quadorbits.cli",
                        "'multiprocessing' in m "
                        "or m in ('argparse', 'gettext')") == "[]\n"


def test_importing_the_cli_leaves_the_verifier_unimported():
    """Only the two verify verbs import the verifier, when they run."""
    assert loaded_after("quadorbits.cli",
                        "m.startswith('quadorbits.verifier')") == "[]\n"


def test_importing_the_package_generates_no_code():
    """No record class is built by ``dataclasses`` (which execs the source
    of its methods and imports ``inspect``)."""
    assert loaded_after("quadorbits.cli, quadorbits.verifier.lemmas",
                        "m in ('dataclasses', 'inspect')") == "[]\n"


def declared_floor() -> tuple[int, int]:
    """The (major, minor) of the ``requires-python = ">=X.Y"`` that
    pyproject.toml declares."""
    tomllib = pytest.importorskip("tomllib")
    with open(PACKAGE.parents[1] / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["requires-python"]
    assert spec.startswith(">="), spec
    major, minor = spec[2:].split(".")[:2]
    return int(major), int(minor)


def test_every_module_parses_at_the_declared_python_floor():
    """No module uses syntax newer than the floor it declares."""
    floor = declared_floor()
    for path in sorted(PACKAGE.rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def test_the_floor_check_sees_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


def unreferenced_private_defs(paths: list[Path], root: Path = PACKAGE
                              ) -> list[str]:
    """The underscore functions and classes defined in paths whose name no
    ``Name`` or ``Attribute`` anywhere in paths refers to."""
    defined, used = [], set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and _is_private(node.name)):
                defined.append((node.name,
                                f"{_module_name(path, root)}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{where} defines {name}, never referenced"
            for name, where in defined if name not in used]


def test_every_private_helper_has_a_caller():
    found = unreferenced_private_defs(sorted(PACKAGE.rglob("*.py")))
    assert not found, found


def test_unreferenced_checker_sees_names_and_attributes(tmp_path):
    pkg = tmp_path / "quadorbits"
    pkg.mkdir()
    (pkg / "a.py").write_text("def _dead():\n"
                              "    pass\n"
                              "def _called():\n"
                              "    pass\n"
                              "class _Helper:\n"
                              "    def _method(self):\n"
                              "        return self._other()\n"
                              "    def _other(self):\n"
                              "        return _called()\n"
                              "    def __repr__(self):\n"
                              "        return ''\n")
    (pkg / "b.py").write_text("from . import a\n"
                              "x = a._Helper\n"
                              "def _unused_here():\n"
                              "    return _dead\n")
    assert unreferenced_private_defs(sorted(pkg.glob("*.py")), pkg) == [
        "quadorbits.a:6 defines _method, never referenced",
        "quadorbits.b:3 defines _unused_here, never referenced",
    ]
