"""Static hygiene of the package sources."""

import ast
import importlib
import re
from pathlib import Path

import vorspec

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "vorspec"


def unused_imports(source: str):
    """Names a module imports but never reads (from __future__ aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_scan_sees_plain_and_from_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom typing import IO, Optional\n"
              "from .errors import A, B as C\n"
              "def f(x: Optional[int]) -> IO:\n    return np.abs(C)\n")
    assert unused_imports(source) == [(2, "os"), (5, "A")]


def test_no_unused_imports_in_package():
    paths = [p for p in sorted(PACKAGE_DIR.glob("*.py"))
             if p.name != "__init__.py"]
    assert len(paths) >= 10, f"package sources not found in {PACKAGE_DIR}"
    found = []
    for path in paths:
        found += [f"{path.name}:{line} {name}" for line, name
                  in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def unused_private_names(sources):
    """(file, line, name) of every module-level private name, a function,
    class or assignment target (dunders aside), that no statement of the
    given {file: source} reads besides the one defining it."""
    defined, readers = [], {}
    for fname, source in sources.items():
        for stmt in ast.parse(source).body:
            where = (fname, stmt.lineno)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    readers.setdefault(node.id, set()).add(where)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(where)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(where, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return sorted((*where, name) for where, name in defined
                  if not readers.get(name, set()) - {where})


def test_unused_private_name_scan_sees_functions_classes_and_targets():
    sources = {"a.py": "_A = 1\n_B, _C = 2, 3\n_D: int = 4\n"
                       "def _f():\n    return _f()\n"
                       "class _K:\n    pass\n"
                       "def g():\n    return _B + m._D\n__all__ = []\n",
               "b.py": "from .a import _K\nx = _K()\n"}
    assert unused_private_names(sources) == [("a.py", 1, "_A"),
                                             ("a.py", 2, "_C"),
                                             ("a.py", 4, "_f")]


def test_no_unused_private_names_in_package():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 10, f"package sources not found in {PACKAGE_DIR}"
    assert unused_private_names({p.name: p.read_text(encoding="utf-8")
                                 for p in paths}) == []


def local_imports(source: str):
    """Lines of the imports made inside a function or method body."""
    tree = ast.parse(source)
    return sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_local_import_scan_sees_nested_and_method_imports():
    source = ("import os\n"
              "def f():\n    import sys\n"
              "    def g():\n        from os import path\n"
              "class C:\n    from re import compile\n"
              "    def m(self):\n        import re\n")
    assert local_imports(source) == [3, 5, 9]


def test_no_function_local_imports_in_package():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 10, f"package sources not found in {PACKAGE_DIR}"
    found = [f"{path.name}:{line}" for path in paths
             for line in local_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_every_public_name_resolves():
    modules = [vorspec] + [importlib.import_module(f"vorspec.{p.stem}")
                           for p in sorted(PACKAGE_DIR.glob("*.py"))
                           if p.name != "__init__.py"]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in m.__all__ if not hasattr(m, name)]
    assert missing == []


# the norm caches of ScalarField and VectorField, which spectral._norm_sq,
# spectral._div_norm_sq and spectral._sup_norm alone fill, so that a norm's
# bits never depend on which caller took it first; _div_sq is banned too,
# so that a divergence norm stays a "div" entry of _norms, not a slot
CACHE_NAMES = re.compile(r"\b(_norms|_div_sq)\b")
# the node-value cache of ScalarField, which only its constructor and its
# physical property fill and no code empties, so a run writes and clears
# no node values; Grid keeps no node coordinates at all
NODE_CACHE = re.compile(r"\b_phys\b")
GRID_NODES = re.compile(r"\b_nodes\b")


def mentions(pattern, owners=()):
    """file:line of every package line matching pattern outside owners."""
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 10, f"package sources not found in {PACKAGE_DIR}"
    return [f"{path.name}:{line}" for path in paths
            if path.name not in owners
            for line, text in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(text)]


def test_only_spectral_touches_the_norm_caches():
    assert mentions(CACHE_NAMES, ("spectral.py",)) == []


def attribute_stores(source: str, names):
    """Lines where source assigns, augments or deletes an attribute whose
    name is in names."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, (ast.Store, ast.Del))
                   and node.attr in names})


def test_attribute_store_scan_sees_stores_only():
    source = ("a = f._half\nf._half = a\ng.x._half += 1\n"
              "h._half: int = 2\nb = [f._half]\ndel f._half\n")
    assert attribute_stores(source, ("_half",)) == [2, 3, 4, 6]


def test_only_spectral_assigns_a_fields_value():
    """A field's half spectrum is set by its constructor and changed only
    by spectral._detach, which gives a field viewing run()'s history ring
    a copy of the same bits before the row is reused: no other module
    moves a field's memory."""
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 10, f"package sources not found in {PACKAGE_DIR}"
    found = [f"{path.name}:{line}" for path in paths
             if path.name != "spectral.py"
             for line in attribute_stores(path.read_text(encoding="utf-8"),
                                          ("_half",))]
    assert found == []


def test_only_spectral_touches_the_node_cache():
    assert mentions(NODE_CACHE, ("spectral.py",)) == []
    assert mentions(GRID_NODES) == []


def attribute_reads(source: str, names):
    """Lines where source reads an attribute whose name is in names."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load) and node.attr in names})


def test_attribute_read_scan_sees_loads_only():
    source = "a = flow.psi\nflow.vel.x = 1\nb = flow.omega\nc.psi = 2\n"
    assert attribute_reads(source, ("psi", "vel")) == [1, 2]


def attribute_reads_in(files, names):
    """file:line of every read of an attribute in names in the files."""
    return [f"{name}:{line}" for name in files
            for line in attribute_reads(
                (PACKAGE_DIR / name).read_text(encoding="utf-8"), names)]


def test_the_step_loop_reads_no_psi_or_velocity():
    """The step and the convection work from omega alone: the flow states
    they hand out build psi and the velocity only when someone asks."""
    assert attribute_reads_in(("integrators.py", "convection.py"),
                              ("psi", "vel")) == []


# the Grid tables holding the kinematic symbols and the Parseval layout
GRID_TABLES = ("_d1x", "_d1y", "_ksq", "_inv_ksq", "_parseval", "_neg_rows")


def test_studies_and_records_read_no_grid_table():
    """The convergence study and the diagnostics take their Parseval rows
    from spectral's helpers, so the symbols and the layout live in
    spectral.py alone."""
    assert attribute_reads_in(("bench.py", "diagnostics.py"),
                              GRID_TABLES) == []


def view_calls(source: str):
    """Lines where source calls a method named view."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "view"})


def test_view_call_scan_sees_method_calls_only():
    source = ("a = h.view(np.float64)\nb = h.view\n# x.view(float)\n"
              "c = f(h).view(\n    float)\nd = view(h)\n")
    assert view_calls(source) == [1, 4]


def test_only_spectral_knows_the_float_layout():
    """The convergence study and the diagnostics take no float view of a
    half spectrum: their Parseval sums go through spectral._parseval_pass,
    so the layout of (real, imaginary) pairs stays in spectral.py."""
    found = [f"{name}:{line}" for name in ("bench.py", "diagnostics.py")
             for line in view_calls(
                 (PACKAGE_DIR / name).read_text(encoding="utf-8"))]
    assert found == []


def forcing_readers(source: str, owners=("run", "_forcing_half")):
    """Top-level functions and classes of source, owners aside, that take
    a forcing parameter or read the name forcing or _forcing_half; what a
    nested function or lambda does counts for the definition around it."""
    return [top.name for top in ast.parse(source).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and top.name not in owners
            and any(isinstance(node, ast.arg) and node.arg == "forcing"
                    or isinstance(node, ast.Name)
                    and node.id in ("forcing", "_forcing_half")
                    for node in ast.walk(top))]


def test_forcing_scan_sees_parameters_reads_and_calls():
    source = ("def run(forcing):\n    return _forcing_half(forcing, 0.0)\n"
              "def _forcing_half(forcing, t):\n    return forcing(t)\n"
              "def takes(grid, forcing=None):\n    pass\n"
              "def reads():\n    return forcing\n"
              "def calls(f):\n    return _forcing_half(f, 1.0)\n"
              "def nested():\n    return lambda t: forcing(t)\n"
              "class Rule:\n    def step(self):\n        return forcing\n"
              "def attribute(cfg):\n    return cfg.forcing, 'forcing'\n")
    assert forcing_readers(source) == ["takes", "reads", "calls", "nested",
                                       "Rule"]


def test_only_run_calls_the_forcing():
    """run() is the only frame of a step that calls user code: in
    integrators.py no function but run takes or reads the forcing, and
    _forcing_half, the one helper that calls it, is called once, from run,
    so no step helper whose frame views the history ring or the scratch
    stacks is in the traceback of what the forcing raises."""
    source = (PACKAGE_DIR / "integrators.py").read_text(encoding="utf-8")
    assert forcing_readers(source) == []
    assert [node.func.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_forcing_half"] == ["_forcing_half"]
