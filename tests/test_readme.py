"""The README's library example imports only names the package exports.

Pruning an export from ``eegfactor/__init__.py`` must not leave the README
example importing a name that is gone.
"""
import re
from pathlib import Path

import eegfactor

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_names_are_exported():
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## Library use"):]
    names = re.search(r"from eegfactor import \(([^)]*)\)", block).group(1)
    imported = [n.strip() for n in names.split(",") if n.strip()]
    assert imported and [n for n in imported if not hasattr(eegfactor, n)] == []
