"""The prose docs quote only files and subcommands that exist.

README.md, DESIGN.md and EXPERIMENTS.md name scripts, tests, modules and
``repro`` subcommands; a deletion that leaves such a mention behind sends
the reader to nothing. (``bench/README.md`` belongs to the frozen
benchmark and is not checked here.)
"""

import glob
import re
from pathlib import Path

import pytest

from tests.test_cli import registered_subcommands

ROOT = Path(__file__).parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

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
