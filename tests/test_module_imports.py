"""Every module under ``src/repro`` has an importer outside the tests.

A module that only tests import is dead code with a test attached. The
check reads the sources with ``ast`` (nothing is imported): a module
counts as used when another file under ``src/``, ``jobs/``,
``benchmarks/`` or ``perfbench/`` imports it. Package ``__init__``
modules are imported with their submodules and are not checked.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
IMPORTERS = ("src", "jobs", "benchmarks", "perfbench")


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_names(path: Path) -> set[str]:
    """Dotted names that ``path`` imports, with every prefix."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = ""
    if path.is_relative_to(PACKAGE):
        package = _module_name(path)
        if path.name != "__init__.py":
            package = package.rsplit(".", 1)[0]
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{a.name}" for a in node.names)
    return {".".join(n.split(".")[:i]) for n in names for i in range(1, n.count(".") + 2)}


def test_every_module_has_an_importer():
    modules = {
        _module_name(p): p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"
    }
    used: set[str] = set()
    for top in IMPORTERS:
        for path in (ROOT / top).rglob("*.py"):
            own = _module_name(path) if path.is_relative_to(PACKAGE) else None
            used |= _imported_names(path) - {own}
    unused = sorted(m for m in modules if m not in used)
    assert not unused, f"modules nothing outside the tests imports: {unused}"
