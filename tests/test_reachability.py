"""``src/repro`` ships what a query reaches.

An import graph rooted at the CLI (``repro.cli``, ``repro.__main__``),
every ``bench/*.py`` and every ``benchmarks/*.py`` must reach every
module under ``src/repro``. Code that only tests or tools use lives in
``tests/`` or ``tools/``; code nothing uses is deleted.

The graph is read off the source with :mod:`ast`: every ``import`` and
``from … import`` counts, function-local ones too. Importing a module
runs its parent packages, so they are reached, but a package's own
re-export list reaches nothing by itself: ``from pkg import name``
follows into the submodule that ``pkg/__init__.py`` re-exports ``name``
from.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
ENTRY_MODULES = ("repro.cli", "repro.__main__")


def _module_files(src: Path) -> dict[str, Path]:
    """Dotted name -> file of every module under ``src``."""
    files = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _absolute(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The module a ``from … import`` names, relative levels resolved."""
    if not node.level:
        return node.module or ""
    package = module if is_package else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


class _ImportGraph:
    def __init__(self, src: Path) -> None:
        self.files = _module_files(src)
        self.reached: set[str] = set()
        self._trees: dict[Path, ast.Module] = {}

    def _tree(self, path: Path) -> ast.Module:
        if path not in self._trees:
            self._trees[path] = ast.parse(path.read_text(encoding="utf-8"))
        return self._trees[path]

    def _is_package(self, name: str) -> bool:
        return self.files.get(name, Path()).name == "__init__.py"

    def follow_file(self, path: Path, module: str = "") -> None:
        """Follow every import of one file (a root, or a reached module)."""
        tree = self._tree(path)
        is_package = path.name == "__init__.py"
        # A package's module-level ``from … import`` lines are its
        # re-export list: they are followed per imported name instead.
        re_exports = (
            {id(node) for node in tree.body if isinstance(node, ast.ImportFrom)}
            if is_package
            else set()
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.reach(alias.name)
            elif isinstance(node, ast.ImportFrom) and id(node) not in re_exports:
                target = _absolute(node, module, is_package)
                self.import_from(target, [alias.name for alias in node.names])

    def reach(self, name: str) -> None:
        """Mark ``name`` and its parent packages reached; follow their imports."""
        if name in self.reached or name not in self.files:
            return
        self.reached.add(name)
        parent = name.rpartition(".")[0]
        if parent:
            self.reach(parent)
        self.follow_file(self.files[name], name)

    def import_from(self, target: str, names: list[str]) -> None:
        self.reach(target)
        if not self._is_package(target):
            return
        re_exported = self._re_exports(target)
        for name in names:
            if f"{target}.{name}" in self.files:
                self.reach(f"{target}.{name}")
            elif name in re_exported:
                self.import_from(*re_exported[name])

    def _re_exports(self, package: str) -> dict[str, tuple[str, list[str]]]:
        """Bound name -> (source module, [original name]) of a package's re-exports."""
        found = {}
        for node in self._tree(self.files[package]).body:
            if isinstance(node, ast.ImportFrom):
                source = _absolute(node, package, True)
                for alias in node.names:
                    found[alias.asname or alias.name] = (source, [alias.name])
        return found


def unreached_modules(src: Path, roots: list[Path]) -> list[str]:
    """Modules under ``src`` that neither the entry modules nor ``roots`` reach."""
    graph = _ImportGraph(src)
    for name in ENTRY_MODULES:
        graph.reach(name)
    for path in roots:
        graph.follow_file(path)
    return sorted(set(graph.files) - graph.reached)


def test_every_module_under_src_is_reached():
    roots = sorted((ROOT / "bench").glob("*.py")) + sorted(
        (ROOT / "benchmarks").glob("*.py")
    )
    unreached = unreached_modules(ROOT / "src", roots)
    assert not unreached, (
        "no import path from repro.cli, bench/ or benchmarks/ reaches "
        f"{unreached}: move test or tool code out of src/repro, or delete it"
    )


def test_a_re_export_alone_reaches_nothing(tmp_path):
    package = tmp_path / "src" / "repro"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "from repro.sub import used\n\ndef main():\n    import repro.lazy\n"
    )
    (package / "__main__.py").write_text("import repro.cli\n")
    (package / "lazy.py").write_text("")
    (package / "sub" / "__init__.py").write_text(
        "from repro.sub.a import used\nfrom repro.sub.b import unused\n"
    )
    (package / "sub" / "a.py").write_text("used = 1\n")
    (package / "sub" / "b.py").write_text("unused = 2\n")
    assert unreached_modules(tmp_path / "src", []) == ["repro.sub.b"]
