"""Package hygiene, checked with the standard library alone.

Every name the package exports resolves, and no module imports a name it
never uses, so a deletion cannot leave an import behind. An import kept on
purpose carries `# noqa` on its line: the stats bindings of los_phase and
nlos_ray_phases, which the benchmark's tracer wraps there. Likewise every
module-level private name is loaded somewhere in the package, so a deletion
cannot leave a dead helper behind.

Every phasor goes through channel._cis: no exp call outside
channel._cis_libm (the kernel's table source and fallback) takes a complex
argument.

No module reads the process environment, so results depend only on a
call's arguments and no hidden setting can come back.

No module checks for an integer by hand: isinstance(..., int), alone or in
a tuple, appears only inside geometry's number predicates, so every index,
count and seed goes through geometry._index. Likewise no module reads the
predicate geometry._finite_number outside geometry._real, so every real
number goes through that one rule, and no module reads is_integer outside
geometry._json_index, so every integer of a config or sweep dict does too.
"""

import ast
from pathlib import Path

import pytest

import nfmimo

MODULES = sorted(p for p in Path(nfmimo.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py")


def test_every_exported_name_resolves():
    assert [name for name in nfmimo.__all__ if not hasattr(nfmimo, name)] == []


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded, except on lines marked # noqa."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted annotations such as "Vec3" name types without an ast.Name node.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return sorted(name for name, line in imported.items() if name not in used and "# noqa" not in lines[line - 1])


def test_unused_import_scan_flags_only_unmarked_unused_names():
    source = "import os\nimport sys\nfrom math import pi, tau  # noqa\nfrom json import dumps\nsys.exit(dumps)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level private name (a _x def, class or assignment; dunders excepted) no module loads.

    A load is a name read in an expression or an attribute read, such as module._x.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = {
        n.id if isinstance(n, ast.Name) else n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            dead += [
                f"{module}.{name}"
                for name in names
                if name[0] == "_" and not name[:2] == name[-2:] == "__" and name not in loaded
            ]
    return sorted(dead)


def test_dead_private_name_scan_flags_only_names_no_module_loads():
    sources = {
        "a": (
            "__all__ = []\n_CALLED = 1\n_READ: int = 2\nPUBLIC = 3\n_x, _y = 4, 5\n"
            "def _helper():\n    return _CALLED\ndef _dead():\n    pass\nclass _Dead:\n    pass\n"
        ),
        "b": "import a\nfrom a import _helper, _dead\n_helper()\nprint(a._READ, _y)\n",
    }
    assert dead_private_names(sources) == ["a._Dead", "a._dead", "a._x"]


def test_no_dead_private_names():
    package = Path(nfmimo.__file__).resolve().parent
    assert dead_private_names({p.stem: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}) == []


COMPLEX_NAMES = {"complex", "complex64", "complex128", "cdouble", "csingle", "clongdouble"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _complex_marked(node: ast.AST, names: set[str]) -> bool:
    """Whether an expression holds an imaginary literal, a complex type, or a name bound to such an expression."""
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, complex):
            return True
        if isinstance(n, ast.Name) and (n.id in COMPLEX_NAMES or n.id in names):
            return True
        if isinstance(n, ast.Attribute) and n.attr in COMPLEX_NAMES:
            return True
    return False


def _is_exp(func: ast.AST) -> bool:
    """np.exp, numpy.exp, cmath.exp or a bare exp."""
    if isinstance(func, ast.Attribute):
        return func.attr == "exp" and isinstance(func.value, ast.Name) and func.value.id in {"np", "numpy", "cmath"}
    return isinstance(func, ast.Name) and func.id == "exp"


def complex_exp_calls(source: str, allowed: str = "_cis_libm") -> list[int]:
    """Lines of exp calls with a complex argument, outside the function named allowed.

    An argument is complex if it holds an imaginary literal or a complex type,
    or names a variable its own scope (module or function) assigns from such
    an expression.
    """
    tree = ast.parse(source)
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS) and n.name != allowed)]
    lines = set()
    for scope in scopes:
        nodes, stack = [], list(ast.iter_child_nodes(scope))
        while stack:  # the scope's own nodes; a nested function is a scope of its own
            node = stack.pop()
            nodes.append(node)
            if not isinstance(node, FUNCTIONS):
                stack.extend(ast.iter_child_nodes(node))
        names: set[str] = set()
        while True:
            bound = {
                t.id
                for n in nodes
                if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and n.value is not None
                and _complex_marked(n.value, names)
                for target in (n.targets if isinstance(n, ast.Assign) else [n.target])
                for t in ast.walk(target)
                if isinstance(t, ast.Name)
            }
            if bound <= names:
                break
            names |= bound
        lines |= {
            n.lineno
            for n in nodes
            if isinstance(n, ast.Call) and _is_exp(n.func) and any(_complex_marked(a, names) for a in n.args)
        }
    return sorted(lines)


def test_complex_exp_scan_flags_only_complex_arguments_outside_the_allowed_function():
    source = (
        "import numpy as np\n"
        "def _cis_libm(x):\n    return np.exp(1j * x)\n"
        "def real(x):\n    return np.exp(-x * x)\n"
        "def literal(x):\n    return np.exp(1j * x)\n"
        "def bound(x):\n    z = x * 1j\n    w = z + 1\n    return np.exp(w)\n"
        "def cast(x):\n    return np.exp(x.astype(np.complex128))\n"
        "def cmath_call(x):\n    import cmath\n    return cmath.exp(complex(0, x))\n"
        "def other_scope(w):\n    return np.exp(w)\n"
    )
    assert complex_exp_calls(source) == [7, 11, 13, 16]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_complex_exponential_goes_through_cis(path):
    assert complex_exp_calls(path.read_text(encoding="utf-8")) == []


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[int]:
    """Lines that read the process environment: an attribute such as os.environ or os.getenv, or one imported from os."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines |= {node.lineno for alias in node.names if alias.name in ENVIRONMENT_NAMES}
    return sorted(lines)


def test_environment_scan_flags_every_form_of_an_environment_read():
    source = (
        "import os\nimport os as system\nfrom os import getenv\nfrom os import path\n"
        "a = os.environ.get('X')\nb = system.getenv('X')\nc = os.environ['X']\nd = path.join('a', 'b')\n"
    )
    assert environment_reads(source) == [3, 5, 6, 7]


@pytest.mark.parametrize("path", sorted(Path(nfmimo.__file__).resolve().parent.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


# The functions of geometry.py that may test for int: its number predicates.
INTEGER_PREDICATES = {"_finite_number", "_index"}


def integer_checks(source: str, allowed=frozenset()) -> list[str]:
    """function:line of each isinstance call whose type argument is int or a tuple holding int, outside allowed.

    The function is the innermost def around the call, or <module>.
    """
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "isinstance":
                types = child.args[1] if len(child.args) == 2 else None
                names = types.elts if isinstance(types, ast.Tuple) else [types]
                if function not in allowed and any(isinstance(n, ast.Name) and n.id == "int" for n in names):
                    found.append(f"{function}:{child.lineno}")
            visit(child, child.name if isinstance(child, FUNCTIONS) else function)

    visit(ast.parse(source), "<module>")
    return found


def test_integer_check_scan_flags_int_alone_or_in_a_tuple_outside_the_allowed_functions():
    source = (
        "def _index(v):\n    return isinstance(v, (int, float))\n"
        "def count(v):\n    return isinstance(v, int)\n"
        "def pair(v):\n    return isinstance(v, (float, int))\n"
        "def other(v):\n    return isinstance(v, (bool, float)) or isinstance(v, str)\n"
        "flagged = isinstance(1, int)\n"
        "class A:\n    def m(self, v):\n        def inner(w):\n            return isinstance(w, int)\n        return inner\n"
    )
    assert integer_checks(source, {"_index"}) == ["count:4", "pair:6", "<module>:9", "inner:13"]


@pytest.mark.parametrize("path", sorted(Path(nfmimo.__file__).resolve().parent.glob("*.py")), ids=lambda p: p.name)
def test_no_module_checks_for_an_integer_by_hand(path):
    allowed = INTEGER_PREDICATES if path.name == "geometry.py" else frozenset()
    assert integer_checks(path.read_text(encoding="utf-8"), allowed) == []


def name_reads(source: str, name: str, allowed=frozenset()) -> list[str]:
    """function:line of each read of name, bare or as an attribute (module.name), outside the functions in allowed.

    The function is the innermost def around the read, or <module>.
    """
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load) and function not in allowed:
                if (child.id if isinstance(child, ast.Name) else child.attr) == name:
                    found.append(f"{function}:{child.lineno}")
            visit(child, child.name if isinstance(child, FUNCTIONS) else function)

    visit(ast.parse(source), "<module>")
    return found


def test_name_read_scan_flags_calls_and_references_outside_the_allowed_functions():
    source = (
        "import geometry\n"
        "def _real(v):\n    return _finite_number(v)\n"
        "def weights(k):\n    return _finite_number(k)\n"
        "def many(vs):\n    return all(map(_finite_number, vs))\n"
        "def other(v):\n    return geometry._finite_number(v)\n"
        "_finite_number = None\n"
        "flagged = _finite_number\n"
    )
    assert name_reads(source, "_finite_number", {"_real"}) == ["weights:5", "many:7", "other:9", "<module>:11"]


@pytest.mark.parametrize("path", sorted(Path(nfmimo.__file__).resolve().parent.glob("*.py")), ids=lambda p: p.name)
def test_every_real_number_goes_through_real(path):
    allowed = {"_real"} if path.name == "geometry.py" else frozenset()
    assert name_reads(path.read_text(encoding="utf-8"), "_finite_number", allowed) == []


@pytest.mark.parametrize("path", sorted(Path(nfmimo.__file__).resolve().parent.glob("*.py")), ids=lambda p: p.name)
def test_every_dict_integer_goes_through_json_index(path):
    allowed = {"_json_index"} if path.name == "geometry.py" else frozenset()
    assert name_reads(path.read_text(encoding="utf-8"), "is_integer", allowed) == []
