import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def private_reach(source):
    """The `_`-prefixed names a script imports from mirrorint, and the
    `_`-prefixed non-dunder attributes it reads on anything."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mirrorint"):
            parts = node.module.split(".") + [alias.name for alias in node.names]
            found += [name for name in parts if name.startswith("_")]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mirrorint"):
                    found += [n for n in alias.name.split(".") if n.startswith("_")]
        elif isinstance(node, ast.Attribute):
            if node.attr.startswith("_") and not node.attr.endswith("__"):
                found.append(node.attr)
    return found


def test_private_reach_is_caught():
    source = (
        "import mirrorint._x\n"
        "from mirrorint.harmonic import _inverse_sum, harmonic\n"
        "from mirrorint._y import z\n"
        "acc._combined()\n"
        "print(__name__, m.__doc__)\n"
    )
    assert private_reach(source) == ["_x", "_inverse_sum", "_y", "_combined"]


def test_scripts_read_no_private_name():
    for path in sorted((ROOT / "scripts").glob("*.py")):
        assert private_reach(path.read_text()) == [], path.name


def test_deep_scan_n7_smoke():
    # The script runs the library's coeff_C_valuations from the command
    # line; a short run catches a broken import or output line.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "deep_scan_n7.py"), "60"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "no index with v_3(C(m)) < 4 up to m = 60" in done.stdout
