"""Tests for the named tolerances."""

import ast
from pathlib import Path

from sector_radius import tolerances


def test_every_tolerance_has_a_reader():
    # a constant must go with its last reader; a mention in a docstring or
    # a comment does not count, a name, an attribute or an import does
    read = set()
    for path in Path(tolerances.__file__).parent.glob("*.py"):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = [name for name in vars(tolerances)
              if name.isupper() and name not in read]
    assert unread == []
