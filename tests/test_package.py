import ast
import sys
from pathlib import Path

import landauzb


def test_every_export_resolves():
    # a stale name in __all__ breaks `from landauzb import *` only at run time
    missing = [name for name in landauzb.__all__ if not hasattr(landauzb, name)]
    assert missing == []
    assert len(set(landauzb.__all__)) == len(landauzb.__all__)


def test_runtime_imports_only_numpy_and_the_standard_library():
    # numpy is the package's only runtime dependency (pyproject.toml): every
    # module imports the standard library, numpy and its own modules alone
    allowed = set(sys.stdlib_module_names) | {"numpy", "landauzb"}
    foreign = set()
    for path in sorted(Path(landauzb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue                # relative imports stay in the package
            foreign |= {(path.name, name) for name in names
                        if name.split(".")[0] not in allowed}
    assert foreign == set()
