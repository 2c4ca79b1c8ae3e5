"""The package keeps only what it runs: every function it defines has a
caller elsewhere in the package, bar a few entry points kept for users; and
it keeps every name the benchmark traces."""

import ast
import importlib.util
from pathlib import Path

import pytest

import qjordan

PACKAGE = Path(qjordan.__file__).parent
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# functions that nothing in the package calls, kept on purpose
ENTRY_POINTS = {
    "active_backend",  # the benchmark records which kernel ran
    "check_theorem_gg",  # the benchmark's trees workload runs it
    "check_theorem_jg",  # Theorem JG for users; `johnson` reuses its own count
    "omega",  # CycInt.omega: the root of unity w, a constructor for users
    "to_int",  # CycInt.to_int: a rational integer value as an int, for users
    "span",  # Subspace.span: a subspace from spanning vectors
    "full",  # Subspace.full: the whole ambient space
}


class _Scan(ast.NodeVisitor):
    """The functions and methods a module defines, and the names it reads
    outside the body of a function of the same name (recursion is no
    caller).  Names are matched alone, so a method counts as called when
    any attribute of that name is read."""

    def __init__(self, module: str):
        self.module = module
        self.defined: dict[str, str] = {}  # name -> where it is defined
        self.read: set[str] = set()
        self._scopes: list[str] = []

    def visit_ClassDef(self, node):
        self._scopes.append(node.name)
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node):
        self.defined[node.name] = ".".join([self.module, *self._scopes, node.name])
        self._scopes.append(node.name)
        self.generic_visit(node)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id not in self._scopes:
            self.read.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._scopes:
            self.read.add(node.attr)
        self.generic_visit(node)


def test_every_package_function_has_a_package_caller():
    defined, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        scan = _Scan(path.stem)
        scan.visit(ast.parse(path.read_text(), filename=str(path)))
        defined.update(scan.defined)
        read |= scan.read
    uncalled = sorted(
        where
        for name, where in defined.items()
        if name not in read | ENTRY_POINTS and not (name.startswith("__") and name.endswith("__"))
    )
    assert not uncalled, f"called nowhere in the package: {uncalled}"


def test_all_names_resolve_once():
    names = qjordan.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(qjordan, name)] == []


def test_every_traced_entry_point_resolves():
    # the benchmark's tracer wraps these by name and its gate fails a run
    # in which one records no calls; a name dropped from the package is
    # caught here, without running the benchmark
    if not SPANS.exists():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, module, attr, _ in spans.ENTRY_POINTS:
        owner = importlib.import_module(f"qjordan.{module}")
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        # the tracer patches the defining object, so look there, not in a base
        if owner is None or leaf not in vars(owner):
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced entry points missing from qjordan: {missing}"


# how lattice vectors become exact coefficient planes: their layout, their
# int64-or-object bound and their dtype are lattice.py's alone
PLANE_FORMAT = {"_planes", "_plane_dtype", "_max_coeff"}


def test_the_plane_format_is_named_only_in_lattice():
    named = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "lattice.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in PLANE_FORMAT:
                named.setdefault(path.name, set()).add(name)
    assert not named, f"the plane format is named outside lattice.py: {named}"
