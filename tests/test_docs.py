"""The documents name only modules that exist, and the examples use only
public names.

ROADMAP.md is left out on purpose: it names modules that are planned.
"""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
MODULE = re.compile(r"\brepro/[\w/]+\.py\b")


@pytest.mark.parametrize("document", DOCUMENTS)
def test_named_modules_exist(document):
    text = (REPO_ROOT / document).read_text()
    named = sorted(set(MODULE.findall(text)))
    assert named, f"{document} names no repro/ module"
    missing = [path for path in named if not (REPO_ROOT / "src" / path).is_file()]
    assert missing == []


def _private(name: str) -> bool:
    """One leading underscore: private by convention (dunders are not)."""
    return name.startswith("_") and not name.startswith("__")


def test_examples_use_only_public_names():
    """Each example runs over the public API: no attribute and no name
    imported from ``repro`` starts with a single underscore."""
    examples = sorted((REPO_ROOT / "examples").glob("*.py"))
    assert examples
    private = []
    for path in examples:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                private.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).split(".")[0] == "repro":
                private.extend(
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if _private(alias.name)
                )
    assert private == []
