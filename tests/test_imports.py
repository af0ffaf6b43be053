"""No module of the library, the tests or the demos imports a name it never reads,
and importing rmgb loads neither dataclasses nor typing, nor the modules they import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (file, name) pairs bound on purpose: bench/tracer.py wraps rmgb.decoder.poly_to_word
# by name, so the decoder keeps it bound though its own code does not call it
KEPT = {("src/rmgb/decoder.py", "poly_to_word")}


def unused_imports(path: Path) -> list:
    """Names that ``path`` imports and never loads, ``from __future__`` aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def scanned_files() -> list:
    library = [p for p in (ROOT / "src" / "rmgb").glob("*.py") if p.name != "__init__.py"]
    return sorted(library + [*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def test_no_unused_imports():
    found = {}
    for path in scanned_files():
        rel = path.relative_to(ROOT).as_posix()
        unused = [name for name in unused_imports(path) if (rel, name) not in KEPT]
        if unused:
            found[rel] = unused
    assert found == {}
    for rel, name in KEPT:  # each exception is still needed
        assert name in unused_imports(ROOT / rel), (rel, name)


def test_import_leaves_out_dataclasses_and_typing():
    # compared with the modules present before, since site may preload some of these
    script = ("import sys; before = set(sys.modules); import rmgb; "
              "print(rmgb.__file__); print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    origin, added = proc.stdout.splitlines()
    assert Path(origin).resolve().parent == ROOT / "src" / "rmgb"
    assert {"dataclasses", "inspect", "ast", "typing"} & set(added.split()) == set()
