"""Guards on the package's module structure: every public function, class,
method and property, and every defaulted parameter, has a caller outside
the tests, no module reaches into another module's private names, output is
formatted and written by one module, input text is read by one module, the
analytic and physics layers load without the layers above them, and a CLI
call loads only the layers its subcommand runs."""

import ast
import glob
import os
import subprocess
import sys
from collections import Counter

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _modules():
    for path in sorted(glob.glob(os.path.join(SRC, "oscpurity", "*.py"))):
        with open(path) as f:
            yield os.path.basename(path), ast.parse(f.read(), path)


def _references(tree, kinds=(ast.Name, ast.Attribute)):
    """Every name a tree references as one of the node kinds."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, kinds)
    ]


def test_every_public_name_has_a_caller():
    # Every public module-level function and class of the package is
    # referenced, as a name or an attribute, and every public method and
    # property of its classes as an attribute, in src/ or perfbench/ outside
    # its own definition: code that only the tests call lives in tests/.
    paths = glob.glob(os.path.join(SRC, "oscpurity", "*.py"))
    paths += glob.glob(os.path.join(os.path.dirname(SRC), "perfbench", "*.py"))
    # kinds -> the references of those kinds, everywhere and inside the
    # definition of each name.
    kinds = {"name": (ast.Name, ast.Attribute), "member": (ast.Attribute,)}
    refs = {kind: Counter() for kind in kinds}
    own = {kind: Counter() for kind in kinds}
    public = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for kind, types in kinds.items():
            refs[kind].update(_references(tree, types))
        if not path.startswith(SRC):
            continue
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [("name", stmt.name, stmt)]
            if isinstance(stmt, ast.ClassDef):
                defs += [
                    ("member", "%s.%s" % (stmt.name, item.name), item)
                    for item in stmt.body
                    if isinstance(item, ast.FunctionDef)
                ]
            for kind, qualified, node in defs:
                own[kind][node.name] += _references(node, kinds[kind]).count(node.name)
                if not node.name.startswith("_"):
                    public.append((kind, os.path.basename(path), qualified, node.name))
    unused = [
        (module, qualified)
        for kind, module, qualified, name in public
        if refs[kind][name] <= own[kind][name]
    ]
    assert sorted(unused) == []


def test_every_default_is_passed_by_a_caller():
    # Every parameter with a default, of every function and method of the
    # package, is passed by some call in src/ or perfbench/ (matched by the
    # function's name): by keyword, by position (after self or cls), or
    # through *args or **kwargs.  An option that no caller sets is a fixed
    # choice and belongs in the body or in a module constant.
    paths = glob.glob(os.path.join(SRC, "oscpurity", "*.py"))
    paths += glob.glob(os.path.join(os.path.dirname(SRC), "perfbench", "*.py"))
    calls, defaults = {}, []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        module = os.path.basename(path) if path.startswith(SRC) else None
        methods = {
            item for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                # The called name: f of f(...) or of obj.f(...).
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords
                )
                calls.setdefault(name, []).append(
                    (len(node.args), spread, {k.arg for k in node.keywords})
                )
            elif module and isinstance(node, ast.FunctionDef):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if node in methods and positional[:1] in (["self"], ["cls"]):
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                defaults += [
                    (module, node.name, name, i)
                    for i, name in enumerate(positional[first:], first)
                ]
                defaults += [
                    (module, node.name, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                ]
    unpassed = [
        "%s: %s.%s" % (module, function, name)
        for module, function, name, index in defaults
        if not any(
            spread or name in keywords or (index is not None and count > index)
            for count, spread, keywords in calls.get(function, [])
        )
    ]
    assert unpassed == []


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


def test_no_unused_imports():
    # Every name that a module of the package or of the tests imports is
    # referenced in that module.
    paths = glob.glob(os.path.join(SRC, "oscpurity", "*.py"))
    paths += glob.glob(os.path.join(os.path.dirname(SRC), "tests", "*.py"))
    unused = []
    for path in sorted(paths):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        used = set(_references(tree, (ast.Name,)))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append("%s: %s" % (os.path.basename(path), name))
    assert unused == []


def _is_os_open(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "open"
        and _references(node.func.value) == ["os"]
    )


def _opens_for_writing(tree):
    """The calls of a tree that open a file for writing: each os.open(...),
    and each other open(...) whose mode writes, appends, creates or updates
    (w, a, x or +; a mode not spelled as a constant counts as writing),
    unless it wraps an os.open(...) call."""
    found = []
    for node in ast.walk(tree):
        if _is_os_open(node):
            found.append("os.open")
        elif isinstance(node, ast.Call) and _references(node.func)[:1] == ["open"]:
            mode = node.args[1] if len(node.args) > 1 else None
            mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
            if mode is None or (node.args and _is_os_open(node.args[0])):
                continue
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                found.append("open(..., %s) at line %d" % (ast.unparse(mode), node.lineno))
    return found


def test_only_output_formats_and_writes_results():
    # json is imported, the CSV writer and its float format defined, and a
    # file opened for writing, in output.py alone: every output file goes
    # through its one os.open, which a write-mode open(...) may only wrap.
    found = set()
    opens = []
    for name, tree in _modules():
        opens += [(name, call) for call in _opens_for_writing(tree)]
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
    assert opens == [("output.py", "os.open")]


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


def test_only_cli_catches_package_errors():
    # cli.main alone maps failures to exit codes: no other module has an
    # except clause that catches OscPurityError or a subclass of it, by name
    # or through Exception, BaseException or a bare except.
    caught = {"Exception", "BaseException"}
    for stmt in dict(_modules())["errors.py"].body:  # each class follows its bases
        if isinstance(stmt, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in caught for base in stmt.bases
        ):
            caught.add(stmt.name)
    found = [
        "%s:%d" % (name, node.lineno)
        for name, tree in _modules()
        if name != "cli.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and (node.type is None or caught.intersection(_references(node.type)))
    ]
    assert found == []


def test_only_model_splits_input_text():
    # Configs and sweep specs are split into lines by model.read_pairs alone.
    found = {
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "splitlines"
    }
    assert found == {"model.py"}


def _fresh(script, *args):
    """The last line a fresh interpreter prints running script with args."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().split("\n")[-1]


def _loaded_after(imports, module):
    """Whether a fresh interpreter has module loaded after the imports."""
    return _fresh("import sys, %s; print(%r in sys.modules)" % (imports, module)) == "True"


#: The package's modules that an interpreter has loaded.
_LOADED = 'sorted(m for m in sys.modules if m.split(".")[0] == "oscpurity")'

_BASE = ["oscpurity", "oscpurity.cli", "oscpurity.errors", "oscpurity.model"]

_SCENARIO = "omega_e = 2\npsi = 0.9\nt0 = 1\ntau = 0.5\n"

_SWEEP = _SCENARIO + "param = tau\nmin = 2\nmax = 6\ncount = 4\nreduction = latetime_purity\n"


def test_parsing_loads_no_physics_layer():
    # Building the parser and reading a config and a sweep spec needs only
    # the CLI, the errors and the model.
    script = "import sys\nfrom oscpurity import cli, model\n"
    script += "cli.build_parser()\nmodel.parse_config(%r)\ncli.parse_sweep_spec(%r)\n" % (
        _SCENARIO, _SWEEP)
    assert _fresh(script + "print(%s)" % _LOADED) == str(_BASE)


#: Each subcommand's arguments and the layers it runs.
_RUNS = {
    "simulate": (["--config", "{cfg}"], ["output", "symplectic", "transport"]),
    "isoso": (["--config", "{iso}", "--expansion", "C2"], ["isoso", "output", "symplectic"]),
    "perturb": (["--config", "{cfg}"], ["output", "perturbation"]),
    "adiabatic": (
        ["--config", "{cfg}", "--order", "1"],
        ["adiabatic", "output", "symplectic", "transport"],
    ),
    "markov": (["--config", "{cfg}"], ["markov", "output", "symplectic", "transport"]),
    "sweep": (["--spec", "{spec}"], ["adiabatic", "output", "symplectic", "transport"]),
    "phase-diagram": (["--w", "0.1:1:3", "--psi", "0.1:3:3"], ["output"]),
}


@pytest.mark.parametrize("command", sorted(_RUNS))
def test_subcommand_loads_only_its_layers(command, tmp_path):
    # Each subcommand, alone in a fresh interpreter, exits 0 and loads the
    # layers it runs and no other.
    files = {"cfg": _SCENARIO, "iso": _SCENARIO + "profile = isoso\n", "spec": _SWEEP}
    for key, text in files.items():
        (tmp_path / key).write_text(text)
    args, layers = _RUNS[command]
    argv = [command] + [a.format(**{k: str(tmp_path / k) for k in files}) for a in args]
    script = "import sys\nfrom oscpurity.cli import main\nprint(main(sys.argv[1:]), %s)" % _LOADED
    out = _fresh(script, *argv, "--out", str(tmp_path / "out"))
    assert out == "0 %s" % sorted(_BASE + ["oscpurity." + layer for layer in layers])


def test_perturbation_loads_without_transport():
    assert not _loaded_after("oscpurity.perturbation", "oscpurity.transport")


def test_physics_layers_load_without_output():
    imports = "oscpurity.transport, oscpurity.adiabatic, oscpurity.markov"
    assert not _loaded_after(imports, "oscpurity.output")
