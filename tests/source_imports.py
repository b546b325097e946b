"""What the modules under ``src/repro`` import, for the import guards."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def imports_outside(allowed):
    """``{file: [(line, module)]}`` for every absolute import under
    ``src/repro`` whose top-level package ``allowed`` rejects."""
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if not allowed(name.split(".")[0]):
                    offenders.setdefault(str(path.relative_to(SRC)), []).append(
                        (node.lineno, name)
                    )
    return offenders
