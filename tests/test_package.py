"""Rules that hold for the whole package."""

import ast
import os
import subprocess
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


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # every CLI call pays for `import cumulants` at interpreter start; -S keeps
    # site's own imports (which may include typing) out of the count
    src = Path(cumulants.__file__).parent.parent
    code = (
        "import cumulants, cumulants.cli, sys; "
        "print(*[m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []
