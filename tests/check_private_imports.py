"""Modules of the package share only public names; tests may import private ones.

Exits nonzero, listing each offending import, if a module under
``src/submon`` imports a name starting with ``_`` from another module of
the package.  pytest does not collect this file.  Run it as::

    python -O tests/check_private_imports.py
"""

import ast
from pathlib import Path

root = Path(__file__).resolve().parents[1]
package = root / "src" / "submon"
found = [
    f"{path.relative_to(root)}:{node.lineno}: {alias.name}"
    for path in sorted(package.rglob("*.py"))
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, ast.ImportFrom)
    and (node.level or (node.module or "").split(".")[0] == "submon")
    for alias in node.names
    if alias.name.startswith("_")
]
if found:
    raise SystemExit("private names imported across modules:\n" + "\n".join(found))
print(f"no private imports across the modules of {package.name}")
