"""Every name a library module imports is used in that module.

No linter runs on this code, so this small ``ast`` scan stands in for one.
``__init__.py`` is exempt: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import cumulift

MODULES = sorted(
    p for p in Path(cumulift.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_name():
    source = "import os\nfrom typing import List, Tuple\nx: List[int] = os.sep\n"
    assert unused_imports(source) == [(2, "Tuple")]
