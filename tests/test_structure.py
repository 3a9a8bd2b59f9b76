"""Guards on the package's module structure: no module reaches into another
module's private names, and the analytic layers load without the
integrator."""

import ast
import glob
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_no_module_imports_private_names_of_another():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "oscpurity", "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.append(
                            "%s: from %s%s import %s"
                            % (os.path.basename(path), "." * node.level, node.module, alias.name)
                        )
    assert found == []


def test_perturbation_loads_without_transport():
    script = (
        "import sys, oscpurity.perturbation; "
        "print('oscpurity.transport' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
