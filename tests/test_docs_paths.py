"""The prose docs quote only files, subcommands and names that exist.

README.md, DESIGN.md and EXPERIMENTS.md name scripts, tests, modules,
``repro`` subcommands and identifiers; a deletion that leaves such a
mention behind sends the reader to nothing. (``bench/README.md`` belongs
to the frozen benchmark and is not checked here.)
"""

import ast
import functools
import glob
import importlib
import re
import sys
from pathlib import Path

import pytest

from tests.test_cli import registered_subcommands

ROOT = Path(__file__).parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
CODE_DIRS = ("src", "tests", "bench", "benchmarks", "examples")

_PATH = re.compile(
    r"(?<![\w/.-])((?:benchmarks|tests|examples|src/repro|repro)/[\w*./-]+)"
)
_BENCH_SCRIPT = re.compile(r"`(bench_\w+\.py)")
_SUBCOMMAND = re.compile(r"(?:`|python -m )repro ([a-z]+)")


def _quoted_paths(text: str) -> set[str]:
    found = set()
    for match in _PATH.findall(text):
        path = match.rstrip(".,:")
        if path.startswith("repro/"):
            if not path.endswith(".py"):
                continue  # ``repro/compress/*``-style prose, not a file
            path = "src/" + path
        found.add(path)
    found.update("benchmarks/" + name for name in _BENCH_SCRIPT.findall(text))
    return found


@pytest.mark.parametrize("doc", DOCS)
def test_quoted_paths_exist(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    missing = sorted(
        path for path in _quoted_paths(text) if not glob.glob(str(ROOT / path))
    )
    assert not missing, f"{doc} quotes paths that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_quoted_subcommands_are_registered(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    unknown = sorted(set(_SUBCOMMAND.findall(text)) - registered_subcommands())
    assert not unknown, f"{doc} quotes unregistered subcommands: {unknown}"


_SPAN = re.compile(r"`([^`\n]+)`")
_IDENTIFIER = re.compile(r"[A-Za-z_][\w.]*(?:\(\))?")
_WORD = re.compile(r"\w+")


@functools.cache
def _defined() -> tuple[frozenset[str], re.Pattern]:
    """The names the code defines, and the name families its f-strings build.

    Defined: module file stems, ``def`` / ``class`` names, assignment
    targets (names and attributes), parameters, and the words of string
    literals (counter and metric keys). An f-string that starts with a
    literal of three or more characters is a family: ``f"__agg_{j}"``
    defines ``__agg_j``.
    """
    names: set[str] = set()
    families: set[str] = set()
    for directory in CODE_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            names.add(path.stem)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    names.add(node.attr)
                elif isinstance(node, ast.arg):
                    names.add(node.arg)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.update(_WORD.findall(node.value))
                elif isinstance(node, ast.JoinedStr):
                    head = node.values[0] if node.values else None
                    if isinstance(head, ast.Constant) and len(head.value) >= 3:
                        families.add(
                            "".join(
                                re.escape(part.value)
                                if isinstance(part, ast.Constant)
                                else r"\w+"
                                for part in node.values
                            )
                        )
    return frozenset(names), re.compile("|".join(sorted(families)))


def _library_name(span: str) -> bool:
    """``np.logical_or.reduceat``, ``os._exit``: numpy or the stdlib has it."""
    head, *rest = span.split(".")
    module = {"np": "numpy"}.get(head, head)
    if not rest or (module != "numpy" and module not in sys.stdlib_module_names):
        return False
    target = importlib.import_module(module)
    for part in rest:
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


@pytest.mark.parametrize("doc", DOCS)
def test_quoted_identifiers_are_defined(doc):
    """Every backticked identifier with an underscore names something in the code."""
    names, families = _defined()
    stale = set()
    for span in _SPAN.findall((ROOT / doc).read_text(encoding="utf-8")):
        if "_" not in span or not _IDENTIFIER.fullmatch(span):
            continue
        span = span.removesuffix("()")
        unknown = [
            part
            for part in span.split(".")
            if "_" in part and part not in names and not families.fullmatch(part)
        ]
        if unknown and not _library_name(span):
            stale.add(span)
    assert not stale, f"{doc} quotes names the code does not define: {sorted(stale)}"
