"""The package is dependency-free: every module imports only the standard
library and ``wtoll`` itself.  Read from the source, so a missing or an
installed third-party module is caught alike."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "wtoll").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "wtoll" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} imports {name}")
    assert not outside, outside
    assert re.search(r"^dependencies = \[\]$", (ROOT / "pyproject.toml").read_text(), re.M)
