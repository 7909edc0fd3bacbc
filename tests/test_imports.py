"""Leftovers from deletions (imports nothing uses, exports that no longer exist),
module-level imports of command modules that the front end loads only on demand, and
imports between the analysis modules, which build on ``core`` and ``sampling`` alone."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import conmult

SRC = pathlib.Path(conmult.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_names_only_in_comments_and_strings_as_unused():
    source = "from x import a, b as c\nimport d.e\n# a\nprint('c', d)\n"
    assert unused_imports(source) == ["a", "c"]


def test_every_export_resolves():
    missing = [name for name in conmult.__all__ if not hasattr(conmult, name)]
    assert missing == []


# the modules behind the CLI's commands; a command imports the ones it runs when it runs
COMMAND_MODULES = {"consistency", "elicitation", "model_check", "posterior", "prior_check"}


def package_modules(node):
    """Package modules that one import statement names; none for any other node."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 1:
            return {module.split(".")[0]} if module else {alias.name for alias in node.names}
        if module == "conmult":
            return {alias.name for alias in node.names}
        if module.startswith("conmult."):
            return {module.split(".")[1]}
    elif isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("conmult.")}
    return set()


def module_level_imports(source):
    """Package modules that ``source`` imports when it is imported: outside every function."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            found.update(package_modules(child))
            visit(child)

    visit(ast.parse(source))
    return found


def function_reimports(source):
    """(function, module) for each package module a function imports that its file
    already imports at module level."""
    top = module_level_imports(source)
    return sorted({(fn.name, module) for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) for module in package_modules(node) & top})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_reimports_a_module_level_import(path):
    assert function_reimports(path.read_text()) == []


def test_reimport_guard_sees_only_modules_imported_at_module_level():
    source = ("from .core import a\nimport conmult.sampling\n"
              "def f():\n    from .core import b\n    from .posterior import c\n"
              "    def g():\n        from conmult import sampling\n")
    assert function_reimports(source) == [("f", "core"), ("f", "sampling"), ("g", "sampling")]


def test_cli_loads_command_modules_on_demand():
    assert module_level_imports((SRC / "cli.py").read_text()) & COMMAND_MODULES == set()


def package_imports(source):
    """Package modules that ``source`` imports anywhere, function bodies included."""
    return set().union(*map(package_modules, ast.walk(ast.parse(source))))


@pytest.mark.parametrize("name", sorted(COMMAND_MODULES))
def test_analysis_module_imports_core_and_sampling_alone(name):
    assert package_imports((SRC / f"{name}.py").read_text()) <= {"core", "sampling"}


def test_guard_skips_function_bodies_only():
    source = ("from .core import a\nimport conmult.posterior\nfrom . import elicitation\n"
              "if a:\n    from conmult.model_check import b\n"
              "def f():\n    from .consistency import c\n"
              "class C:\n    from conmult import prior_check\n"
              "    def m(self):\n        import conmult.sampling\n")
    assert module_level_imports(source) == {"core", "posterior", "elicitation", "model_check",
                                            "prior_check"}
    assert package_imports(source) == {"core", "posterior", "elicitation", "model_check",
                                       "consistency", "prior_check", "sampling"}


def environment_reads(source):
    """Lines of ``source`` that read ``os.environ`` or call ``os.getenv``, however imported."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
                  or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
                  or (isinstance(node, ast.ImportFrom) and node.module == "os"
                      and {a.name for a in node.names} & {"environ", "getenv"}))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # flags are set on the command line alone
    assert environment_reads(path.read_text()) == []


def test_guard_sees_every_way_to_read_the_environment():
    source = ("import os\nfrom os import getenv as g, environ\nos.environ.get('A')\n"
              "os.getenv('B')\nenviron['C']\nx = os.path.join('environ')\n")
    assert environment_reads(source) == [2, 3, 4, 5]


def test_ordered_check_prior_loads_no_quadrature_or_consistency(tmp_path):
    """The trine quadrature builds its nodes with numpy.linalg, so an ordered check loads neither."""
    counts, prior = tmp_path / "counts.json", tmp_path / "prior.json"
    counts.write_text(json.dumps({"counts": [30, 20, 12, 8, 5]}))
    prior.write_text(json.dumps({"type": "ordered_dirichlet", "omega_alphas": [1.0] * 4 + [3.0]}))
    script = f"""
import sys
from conmult.cli import main
assert main(["check-prior", "--counts", {str(counts)!r}, "--prior", {str(prior)!r}, "--force",
             "--npred", "20", "--nis", "200", "--out", {str(tmp_path / "out")!r}]) == 0
print(sorted(m for m in ("numpy.polynomial", "conmult.consistency") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent),
                                                                    os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"



PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
# the paper's continuized density; only its convergence tests call it, and they stay
READ_BY_TESTS_ALONE = [("consistency", "continuized_density")]


def definitions(source):
    """Names of the functions and classes, private ones included, that ``source`` defines at
    module level."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def reads_by_statement(source):
    """(name the statement defines, or None; bare names it reads) per module-level statement."""
    return [(getattr(stmt, "name", None),
             {node.id for node in ast.walk(stmt)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)})
            for stmt in ast.parse(source).body]


def unread_definitions(sources, bench_sources):
    """(module, name) for each definition in ``sources``, a dict of module texts, that
    no module reads outside the definition itself and no benchmark source reads."""
    reads = [((module, owner), names) for module, text in sources.items()
             for owner, names in reads_by_statement(text)]
    bench = {name for text in bench_sources for _, names in reads_by_statement(text)
             for name in names}
    return sorted((module, name) for module, text in sources.items()
                  for name in definitions(text)
                  if name not in bench and not any(name in names for where, names in reads
                                                   if where != (module, name)))


def test_every_definition_is_read_outside_the_tests():
    # __init__ only re-exports, so a name that it alone reads is read by nothing
    sources = {p.stem: p.read_text() for p in MODULES}
    bench = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    assert unread_definitions(sources, bench) == READ_BY_TESTS_ALONE


def test_definition_guard_skips_a_definitions_own_body():
    sources = {"a": "def f():\n    return f()\nclass C:\n    x = C\ndef g():\n    return h\n"
                    "def _p():\n    return _p()\n",
               "b": "def h():\n    return 1\nclass D:\n    pass\ny = D\n"
                    "if y:\n    E()\nclass E:\n    pass\nclass _Q:\n    pass\nclass R(_Q):\n"
                    "    pass\n"}
    assert unread_definitions(sources, ["g()\nR()\n"]) == [("a", "C"), ("a", "_p"), ("a", "f")]


def package_bindings(source):
    """{bound name: (module, attribute, or None for the module itself)} for each name that
    ``source`` binds by importing from the package or importing a package module under an alias."""
    bound = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("conmult."):
            bound.update((a.asname or a.name, (node.module, a.name)) for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update((a.asname, (a.name, None)) for a in node.names
                         if a.name.startswith("conmult.") and a.asname)
    return bound


def package_calls(source):
    """(module, function, positional count, keyword names) for each call in ``source`` to a name
    it imports from the package or to an attribute of a package module it imports."""
    bound, calls = package_bindings(source), []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, target = node.func, None
        if isinstance(func, ast.Name) and func.id in bound:
            target = bound[func.id]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and bound.get(func.value.id, (None, ""))[1] is None:
            target = bound[func.value.id][0], func.attr
        if target is not None:
            calls.append((*target, len(node.args), tuple(k.arg for k in node.keywords)))
    return sorted(calls)


def test_package_call_guard_sees_names_and_module_attributes():
    source = ("from conmult.core import a as b\nimport conmult.cli as c\nimport numpy as np\n"
              "def f():\n    b(1, 2, k=3)\n    g(lambda: c.main([]))\n    np.log(1)\n")
    assert package_bindings(source) == {"b": ("conmult.core", "a"), "c": ("conmult.cli", None)}
    assert package_calls(source) == [("conmult.cli", "main", 1, ()),
                                     ("conmult.core", "a", 2, ("k",))]


BENCH_SOURCES = sorted(PERFBENCH.glob("*.py"))


@pytest.mark.parametrize("path", BENCH_SOURCES, ids=lambda p: p.name)
def test_every_benchmark_import_resolves(path):
    missing = [(module, name) for module, name in package_bindings(path.read_text()).values()
               if name is not None and not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("path", BENCH_SOURCES, ids=lambda p: p.name)
def test_every_benchmark_call_binds(path):
    # the layer probes call the library positionally; only a traced benchmark run would
    # otherwise notice a dropped or reordered parameter
    unbound = []
    for call in package_calls(path.read_text()):
        module, name, n_args, keywords = call
        try:
            inspect.signature(getattr(importlib.import_module(module), name)).bind(
                *[None] * n_args, **dict.fromkeys(keywords))
        except TypeError:
            unbound.append(call)
    assert unbound == []


def test_the_probes_positional_calls_are_checked():
    called = {name for _, name, _, _ in package_calls((PERFBENCH / "probes.py").read_text())}
    assert called >= {"find_tau_result", "zm_distance_batch", "conflict_pvalue",
                      "estimate_log_prior_predictive", "run_gibbs"}
