"""README claims that are kept by hand and checked here."""

import re
from pathlib import Path

import entchain

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_export_list_matches_all():
    """The backticked names of README's "The package root exports N names"
    list, and N, equal ``entchain.__all__``."""
    text = README.read_text()
    head = re.search(r"The package root exports (\d+) names .*\n\n", text)
    assert head, "README has no export list"
    block = text[head.end():text.index("\n\n", head.end())]
    names = re.findall(r"`([^`]+)`", block)
    assert len(names) == len(set(names)), "README lists a name twice"
    assert sorted(names) == sorted(entchain.__all__)
    assert int(head.group(1)) == len(entchain.__all__)
