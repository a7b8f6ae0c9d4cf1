"""Fail on any name imported into a module and never read there.

Usage: python3 scripts/unused_imports.py [FILE ...]

Defaults to src/countgen/*.py, tests/*.py and scripts/*.py.  Package ``__init__.py`` files (whose
imports are re-exports) and ``from __future__`` imports are exempt.  A
name counts as read when it appears as a loaded name anywhere in the
module, annotations included.  Exits 1 and lists each unused import as
``path:line: name``; exits 0 when there is none.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(source: str):
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(line, name) for line, name in imported if name not in read]


def main(argv) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] or [
        path for folder in ("src/countgen", "tests", "scripts") for path in sorted((root / folder).glob("*.py"))
    ]
    found = 0
    for path in paths:
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            print(f"{path}:{line}: {name} imported and never read")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
