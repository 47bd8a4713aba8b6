"""Static checks of the package source, in place of a linter.

An AST scan of every module of `dpg_elast` fails on an imported name the
module never uses (names listed in `__all__` count as used), on a
module-level `_private` function that no module of the package refers to,
on a public function or method that no module of the package and no demo
refers to and that neither `__all__` nor `README.md` names, on an
annotated class field that nothing in `src/`, `demos/` or `tests/` reads
by name, and on a third-party import outside `ALLOWED_THIRD_PARTY`.  It
also fails on a public function of `assembly` or `rankone`, other than
`build_dof_layout`, that takes a `Mesh`: after the layout is built, a
step's solver functions take the layout alone.  A line of the package
longer than 88 characters fails too, and so does a call or import of
numpy's Cholesky factor (`np.linalg.cholesky`): every Cholesky factor of
the package goes through scipy's `dpotrf` (`local.cholesky_factor`),
with one error path, and `np.linalg.cholesky` took 1.3 to 2.4 times as
long as `dpotrf` on SPD matrices of order 48 to 400 (one BLAS thread,
2-core x86-64 VM).  LAPACK's `dpotrf` is named only in
`local.cholesky_factor` and `dpotrs` only in `local.cholesky_solve`, so
that no second route to a Cholesky solve, such as a Gram solve beside
`local.lower_solve`, grows back.  A subprocess check keeps the heavy
scipy subpackages out of `sys.modules`, at import and after a study:
each one adds its import time and memory to every run.
"""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dpg_elast"

# every third-party module the package may import
ALLOWED_THIRD_PARTY = {"numpy", "numpy.polynomial", "scipy.linalg",
                       "scipy.sparse", "scipy.sparse.linalg"}
FORBIDDEN_AT_RUN_TIME = ("scipy.optimize", "scipy.special", "scipy.fft")


def parse_package():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def used_names(tree):
    """Names a module reads, its `__all__` entries included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {elt.value for elt in node.value.elts}
    return names


def imported_names(tree):
    """(bound name, line) of every import, `__future__` ones left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def referenced_names(tree):
    """Names, attributes and imported names a module refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_unused_imports():
    unused = []
    for name, tree in parse_package().items():
        used = used_names(tree)
        unused += [f"{name}:{line} {bound}"
                   for bound, line in imported_names(tree) if bound not in used]
    assert unused == []


def test_no_unreferenced_private_functions():
    trees = parse_package()
    referenced = {ref for tree in trees.values()
                  for ref in referenced_names(tree)}
    unreferenced = [f"{name}:{node.lineno} {node.name}"
                    for name, tree in trees.items() for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and node.name not in referenced]
    assert unreferenced == []


def public_functions(tree):
    """(line, qualified name, name) of every public module-level function
    and every public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.lineno, f"{node.name}.{item.name}", item.name
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.lineno, node.name, node.name


def test_no_unreferenced_public_functions():
    # a public function is used by the package or a demo, exported by
    # `__all__`, or documented in the README; anything else is test-only
    # API and belongs in tests/oracle.py
    trees = parse_package()
    demos = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "demos").glob("*.py"))]
    referenced = {ref for tree in [*trees.values(), *demos]
                  for ref in referenced_names(tree)}
    exported = used_names(trees["__init__.py"])
    readme = (ROOT / "README.md").read_text()
    unreferenced = [f"{name}:{line} {qualified}"
                    for name, tree in trees.items()
                    for line, qualified, bare in public_functions(tree)
                    if bare not in referenced | exported
                    and not re.search(rf"\b{bare}\b", readme)]
    assert unreferenced == []


def test_solver_functions_take_no_mesh():
    trees = parse_package()
    takes_mesh = []
    for name in ("assembly.py", "rankone.py"):
        for node in ast.walk(trees[name]):
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")
                    or node.name == "build_dof_layout"):
                continue
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                if arg.arg == "mesh" or re.search(r"\bMesh\b", annotation):
                    takes_mesh.append(f"{name}:{node.lineno} {node.name}"
                                      f"({arg.arg})")
    assert takes_mesh == []


def class_fields(tree):
    """(line, qualified name, name) of every annotated field of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield item.lineno, f"{node.name}.{item.target.id}", item.target.id


def field_reads(tree):
    """Names a module may read a field by: attributes it loads, keyword
    arguments it passes and string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_unread_class_fields():
    # a field nothing reads is dead state, however often it is written
    trees = parse_package()
    paths = [*PACKAGE.parent.rglob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "tests").glob("*.py")]
    read = {name for path in paths
            for name in field_reads(ast.parse(path.read_text(),
                                              filename=str(path)))}
    unread = [f"{name}:{line} {qualified}"
              for name, tree in trees.items()
              for line, qualified, field in class_fields(tree)
              if field not in read]
    assert unread == []


def imported_modules(tree):
    """(module, line) of every absolute import, `__future__` ones left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module != "__future__"):
            yield node.module, node.lineno


MAX_LINE = 88


def test_no_long_lines():
    long = [f"{path.name}:{i} ({len(line)})"
            for path in sorted(PACKAGE.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > MAX_LINE]
    assert long == []


def test_no_numpy_cholesky():
    found = []
    for name, tree in parse_package().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "cholesky"
                    and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")):
                found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
            elif (isinstance(node, ast.ImportFrom)
                    and node.module == "numpy.linalg"
                    and any(alias.name == "cholesky" for alias in node.names)):
                found.append(f"{name}:{node.lineno} from numpy.linalg import")
    assert found == []


# the one function of the package that may name each Cholesky LAPACK routine
LAPACK_ENTRY_POINTS = {"dpotrf": ("local.py", "cholesky_factor"),
                       "dpotrs": ("local.py", "cholesky_solve")}


def lapack_references(tree):
    """(routine, enclosing module-level definition or None, line) of every
    attribute, name or import of a routine of `LAPACK_ENTRY_POINTS`."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            else:
                names = [getattr(node, "attr", getattr(node, "id", None))]
            yield from ((name, owner, node.lineno) for name in names
                        if name in LAPACK_ENTRY_POINTS)


def test_one_entry_point_per_cholesky_routine():
    stray = [f"{name}:{line} {routine} in {owner}"
             for name, tree in parse_package().items()
             for routine, owner, line in lapack_references(tree)
             if (name, owner) != LAPACK_ENTRY_POINTS[routine]]
    assert stray == []


def test_third_party_imports_allowed():
    stray = [f"{name}:{line} {module}"
             for name, tree in parse_package().items()
             for module, line in imported_modules(tree)
             if module.split(".")[0] not in sys.stdlib_module_names
             and module not in ALLOWED_THIRD_PARTY]
    assert stray == []


IMPORT_PROBE = """
import json, sys
import dpg_elast, dpg_elast.cli
from dpg_elast import StudyConfig, run_convergence_study
at_import = set(sys.modules)
run_convergence_study(StudyConfig(benchmark="lshape", mode="adaptive_hp",
                                  steps=2))
run_convergence_study(StudyConfig(method=2, steps=1))
print(json.dumps({"at_import": sorted(at_import),
                  "after_study": sorted(set(sys.modules) - at_import)}))
"""


def test_heavy_scipy_not_imported():
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    modules = json.loads(out.splitlines()[-1])
    loaded = [m for m in modules["at_import"]
              if ".".join(m.split(".")[:2]) in FORBIDDEN_AT_RUN_TIME]
    assert loaded == []
    # nothing is imported lazily inside a study
    assert modules["after_study"] == []
