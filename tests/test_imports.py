"""Every module imports on its own in a fresh interpreter.

An import cycle shows only when the first import enters it at the wrong
module, so each module is imported first in its own process, with the
caller's environment (PYTHONDONTWRITEBYTECODE included).
"""

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
