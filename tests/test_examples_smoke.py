"""Smoke tests: every example script must at least import and expose main.

Every example is checked to parse, import against the current API, and
declare the ``main()`` entry point the README promises.  Only the fast
sketch examples are run to completion here (some others take a
minute); CI also runs ``server_demo.py``.
"""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
RUN_TO_COMPLETION = ["sketch_toolbox.py", "dynamic_stream_demo.py"]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_parses_and_has_main(path):
    tree = ast.parse(path.read_text())
    funcs = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "main" in funcs or any(
        isinstance(n, ast.If) for n in tree.body
    ), f"{path.name} has no main()/__main__ entry"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Import the module without executing main (guarded by __main__)."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # module-level code only builds functions
    assert hasattr(mod, "main")


def test_examples_exist():
    assert len(EXAMPLES) >= 3, "README promises at least three examples"
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names


@pytest.mark.parametrize("name", RUN_TO_COMPLETION)
def test_example_runs_and_prints_ok(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("OK:") for line in proc.stdout.splitlines()), proc.stdout
