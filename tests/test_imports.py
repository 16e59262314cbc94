"""Every module imports on its own in a fresh interpreter, and the source
keeps one JSON writer.

An import cycle shows only when the first import enters it at the wrong
module, so each module is imported first in its own process, with the
caller's environment (PYTHONDONTWRITEBYTECODE included).
"""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import orbicert

SRC = str(Path(orbicert.__file__).resolve().parent.parent)
MODULES = sorted(info.name for info in pkgutil.iter_modules(orbicert.__path__))


def test_every_module_is_listed():
    assert {"certifier", "cli", "constants", "ffheights", "orbifold"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import orbicert.{module}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_indented_json_has_one_writer():
    # json.dumps with indent runs the pure-Python encoder; lattice.dump_json
    # writes the same bytes, and compact json.dumps keeps the C encoder
    found = []
    for path in sorted(Path(orbicert.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dumps"
                and any(kw.arg == "indent" for kw in node.keywords)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
