"""Every example imports against the current public API.

Nothing else runs the examples, and a linter cannot see a name that was
removed from a package, so each example is imported in a fresh interpreter
(``PYTHONPATH=src``, as the examples document) and must define a callable
``main``.  Importing does not run the example: ``main()`` sits behind the
``__main__`` guard.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

PROBE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("example", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
assert callable(getattr(module, "main", None)), "no callable main()"
"""


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_imports(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, str(path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
