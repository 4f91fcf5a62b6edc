"""Rules that hold for the whole package."""

import ast
import sys
from pathlib import Path

import cumulants


def test_runtime_imports_only_the_standard_library():
    # the package has no runtime dependency: every absolute import names a
    # standard-library module; relative imports stay inside the package
    sources = sorted(Path(cumulants.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)
