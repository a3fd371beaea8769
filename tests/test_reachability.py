"""``src/repro`` ships what a caller reaches.

Two rules, read off one parse of the production files: ``src/repro``,
``bench/*.py``, ``benchmarks/*.py`` and ``tools/`` (not ``tests/``, not
``examples/``).

Modules. An import graph rooted at the CLI (``repro.cli``,
``repro.__main__``), every ``bench/*.py`` and every ``benchmarks/*.py``
must reach every module under ``src/repro``. Every ``import`` and
``from … import`` counts, function-local ones too. Importing a module
runs its parent packages, so they are reached, but a package's own
re-export list reaches nothing by itself: ``from pkg import name``
follows into the submodule that ``pkg/__init__.py`` re-exports ``name``
from.

Definitions. Every top-level ``def``/``class`` under ``src/repro``, and
every public method of such a class, must be named by a production file
somewhere outside its own body. Names match loosely: a ``Name``, an
``Attribute.attr``, an import alias or an identifier-shaped string (a
``monkeypatch``-style patch target) all name a definition of that name,
wherever it lives. Dunder names are protocol, not uses, and are not
checked. A package's re-export imports and any module's ``__all__``
name nothing. ``ALLOWED`` lists the few names README promises to library
callers that no production file calls, each with its reason.

Code that only tests or tools use lives in ``tests/`` or ``tools/``;
code nothing uses is deleted.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parent.parent
ENTRY_MODULES = ("repro.cli", "repro.__main__")

# Definitions no production file names that still ship: qualified name
# (``module:Class.method``) -> why.
ALLOWED = {
    "repro.storage.arena:sweep_orphaned_segments": (
        "crash-recovery janitor README documents for a killed process's segments"
    ),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_all(node: ast.AST) -> bool:
    """Whether ``node`` assigns ``__all__``."""
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _definition(node: ast.AST, owners: tuple[str, ...], scope: str) -> str | None:
    """The qualified name ``node`` ships under when it is a checked
    definition — a top-level ``def`` / ``class``, or a public method of a
    top-level class — else None."""
    if not isinstance(node, _DEFINITIONS) or _is_dunder(node.name):
        return None
    if scope == "module":
        return node.name
    if scope == "class" and not isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
        return f"{owners[0]}.{node.name}"
    return None


class _FileIndex:
    """One walk of one file: its imports, the names it uses and where,
    and (under ``src``) the definitions it ships."""

    def __init__(self, path: Path) -> None:
        self.is_package = path.name == "__init__.py"
        self.imports: list[ast.Import | ast.ImportFrom] = []
        self.re_exports: list[ast.ImportFrom] = []
        # name -> the definitions (qualified names) enclosing each use.
        self.uses: dict[str, list[tuple[str, ...]]] = defaultdict(list)
        self.definitions: dict[str, int] = {}  # qualified name -> line
        self._walk(ast.parse(path.read_text(encoding="utf-8")), (), "module")

    def _walk(self, node: ast.AST, owners: tuple[str, ...], scope: str) -> None:
        """Index ``node``'s children. ``owners``: the checked definitions
        around them; ``scope``: ``"module"``, ``"class"`` (a top-level
        class's body) or ``"body"`` (anywhere deeper)."""
        for child in ast.iter_child_nodes(node):
            if scope == "module" and _is_all(child):
                continue
            if scope == "module" and self.is_package and isinstance(child, ast.ImportFrom):
                self.re_exports.append(child)
                continue
            self._use(child, owners)
            qualname = _definition(child, owners, scope)
            if qualname is None:
                self._walk(child, owners, "body")
                continue
            self.definitions[qualname] = child.lineno
            top_class = scope == "module" and isinstance(child, ast.ClassDef)
            self._walk(child, (*owners, qualname), "class" if top_class else "body")

    def _use(self, node: ast.AST, owners: tuple[str, ...]) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self.imports.append(node)
            names = [alias.name.rpartition(".")[2] for alias in node.names]
            names += [alias.asname for alias in node.names if alias.asname]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value] if node.value.isidentifier() else []
        else:
            return
        for name in names:
            self.uses[name].append(owners)


class _Production:
    """Every production file indexed once; the import graph and the
    definition check both read these indexes."""

    def __init__(self, root: Path) -> None:
        self.files = _module_files(root / "src")
        self.roots = (
            sorted((root / "bench").glob("*.py"))
            + sorted((root / "benchmarks").glob("*.py"))
        )
        tools = sorted((root / "tools").rglob("*.py"))
        self.index = {
            path: _FileIndex(path)
            for path in [*self.files.values(), *self.roots, *tools]
        }
        self.reached: set[str] = set()

    # -- modules ---------------------------------------------------------

    def _is_package(self, name: str) -> bool:
        return self.files.get(name, Path()).name == "__init__.py"

    def follow_file(self, path: Path, module: str = "") -> None:
        """Follow every import of one file (a root, or a reached module)."""
        index = self.index[path]
        for node in index.imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.reach(alias.name)
            else:
                target = _absolute(node, module, index.is_package)
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
        for node in self.index[self.files[package]].re_exports:
            source = _absolute(node, package, True)
            for alias in node.names:
                found[alias.asname or alias.name] = (source, [alias.name])
        return found

    def unreached_modules(self) -> list[str]:
        for name in ENTRY_MODULES:
            self.reach(name)
        for path in self.roots:
            self.follow_file(path)
        return sorted(set(self.files) - self.reached)

    # -- definitions -----------------------------------------------------

    def unnamed_definitions(self) -> list[str]:
        """``module:qualname`` of each definition under ``src`` that no
        production file names outside the definition's own body."""
        unnamed = []
        for module, path in self.files.items():
            for qualname in self.index[path].definitions:
                name = qualname.rpartition(".")[2]
                named = any(
                    other is not path or qualname not in owners
                    for other, index in self.index.items()
                    for owners in index.uses.get(name, ())
                )
                if not named:
                    unnamed.append(f"{module}:{qualname}")
        return unnamed


def unreached_modules(root: Path) -> list[str]:
    """Modules under ``root/src`` that neither the entry modules nor the
    benchmark scripts reach."""
    return _Production(root).unreached_modules()


def unnamed_definitions(root: Path) -> list[str]:
    """Definitions under ``root/src`` that no production file names and
    ``ALLOWED`` does not list."""
    return [d for d in _Production(root).unnamed_definitions() if d not in ALLOWED]


def test_every_module_under_src_is_reached():
    unreached = unreached_modules(ROOT)
    assert not unreached, (
        "no import path from repro.cli, bench/ or benchmarks/ reaches "
        f"{unreached}: move test or tool code out of src/repro, or delete it"
    )


def test_every_definition_under_src_is_named():
    unnamed = unnamed_definitions(ROOT)
    assert not unnamed, (
        "no file under src/repro, bench/, benchmarks/ or tools/ names "
        f"{unnamed}: move test-only code into tests/, or delete it"
    )


def test_the_allow_list_is_short_and_live():
    """At most 20 names, each a definition that still ships unnamed: one
    a caller names leaves the list."""
    assert len(ALLOWED) <= 20
    assert set(ALLOWED) <= set(_Production(ROOT).unnamed_definitions())


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
    assert unreached_modules(tmp_path) == ["repro.sub.b"]


def test_a_definition_is_named_by_use_not_by_listing(tmp_path, monkeypatch):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.cli import listed\n__all__ = ['listed', 'Shape']\n"
    )
    (package / "__main__.py").write_text("from repro.cli import main\n")
    (package / "cli.py").write_text(
        "class Shape:\n"
        "    def area(self):\n"
        "        return self.area()\n"  # its own body: not a use
        "    def width(self):\n"
        "        return 1\n"
        "    def _private(self):\n"
        "        return 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "def listed():\n"
        "    return 1\n"
        "\n"
        "def patched():\n"
        "    return 2\n"
        "\n"
        "def kept():\n"
        "    return 3\n"
        "\n"
        "def main(shape=Shape()):\n"
        "    return shape.width()\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "trace.py").write_text(
        "import repro.cli\n\ndef patch():\n    setattr(repro.cli, 'patched', None)\n"
    )
    monkeypatch.setitem(ALLOWED, "repro.cli:kept", "allowed for the test")
    assert unnamed_definitions(tmp_path) == [
        "repro.cli:Shape.area",  # only its own body calls it
        "repro.cli:listed",  # named only by __all__ and a re-export
    ]
