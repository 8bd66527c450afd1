"""The documents name only modules that exist.

ROADMAP.md is left out on purpose: it names modules that are planned.
"""

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
