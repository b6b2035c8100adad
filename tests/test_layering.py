"""Layering of the package, checked on the source with ``ast``.

A module's underscore names are its own: no module may import an underscore
name from another quadorbits module.  The one underscore module,
``_intpoly``, may be imported whole, and only it computes on the integer
row form, through its public names: no other module may use an underscore
name of ``_intpoly``.
"""

import ast
from pathlib import Path

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
