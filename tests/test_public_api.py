"""The package's public names: every entry of __all__ must resolve, so a
removal cannot leave a stale name behind, and no module of the package
imports another's private (underscore) name."""

import ast
import pathlib

import ebsmooth


def test_every_exported_name_resolves():
    missing = [name for name in ebsmooth.__all__ if not hasattr(ebsmooth, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from ebsmooth import *", namespace)
    assert set(ebsmooth.__all__) <= set(namespace)


def test_no_module_imports_another_modules_private_name():
    # each module owns its names: a name another module needs is public
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "ebsmooth"
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "ebsmooth"
            private += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                        if internal and alias.name.startswith("_")
                        and not (alias.name.startswith("__") and alias.name.endswith("__"))]
    assert not private
