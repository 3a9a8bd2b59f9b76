"""Guards on the package's module structure: no module reaches into another
module's private names, output is formatted and written by one module, input
text is read by one module, and the analytic and physics layers load without
the layers above them."""

import ast
import glob
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _modules():
    for path in sorted(glob.glob(os.path.join(SRC, "oscpurity", "*.py"))):
        with open(path) as f:
            yield os.path.basename(path), ast.parse(f.read(), path)


def test_no_module_imports_private_names_of_another():
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.append(
                            "%s: from %s%s import %s"
                            % (name, "." * node.level, node.module, alias.name)
                        )
    assert found == []


def test_only_output_formats_and_writes_results():
    # json is imported, and the CSV writer and its float format defined, in
    # output.py alone.
    found = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found |= {(name, "json") for a in node.names if a.name == "json"}
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found.add((name, "json"))
            elif isinstance(node, ast.FunctionDef) and node.name == "write_csv":
                found.add((name, "write_csv"))
            elif isinstance(node, ast.Assign):
                found |= {
                    (name, "FMT")
                    for t in node.targets
                    if isinstance(t, ast.Name) and t.id == "FMT"
                }
    assert found == {("output.py", "json"), ("output.py", "write_csv"), ("output.py", "FMT")}


def test_only_model_sets_the_panel_refinement_limits():
    # The quadratures' bisection limits and round-off level are assigned in
    # model.py alone, next to the one refinement loop that reads them.
    names = {"MAX_PANELS", "MAX_DEPTH", "ROUNDOFF", "_ROUNDOFF"}
    found = {
        (name, t.id)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id in names
    }
    assert found == {("model.py", "MAX_PANELS"), ("model.py", "MAX_DEPTH"), ("model.py", "ROUNDOFF")}


def test_only_model_splits_input_text():
    # Configs and sweep specs are split into lines by model.read_pairs alone.
    found = {
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "splitlines"
    }
    assert found == {"model.py"}


def _loaded_after(imports, module):
    """Whether a fresh interpreter has module loaded after the imports."""
    script = "import sys, %s; print(%r in sys.modules)" % (imports, module)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


def test_perturbation_loads_without_transport():
    assert not _loaded_after("oscpurity.perturbation", "oscpurity.transport")


def test_physics_layers_load_without_output():
    imports = "oscpurity.transport, oscpurity.adiabatic, oscpurity.markov"
    assert not _loaded_after(imports, "oscpurity.output")
