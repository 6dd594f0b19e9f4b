"""A guard on the NumPy functions whose float64 kernels NumPy picks by CPU
feature: their last bits, and with them an output's bytes, can differ from
one CPU to the next (ROADMAP item 16).  Each call of one in the package must
be listed below with its reason."""

import ast
from collections import Counter
from pathlib import Path

import singletsim

# arccos, arcsin, arctan, arctan2, exp and log were measured under
# NPY_DISABLE_CPU_FEATURES; the rest are transcendental loops of the same
# kind that NumPy also builds per CPU feature
DISPATCHED = {
    "arccos", "arcsin", "arctan", "arctan2", "exp", "log",
    "exp2", "expm1", "log2", "log10", "log1p", "tan", "sinh", "cosh", "tanh",
    "arcsinh", "arccosh", "arctanh", "power", "cbrt",
}

# (module, enclosing function, NumPy function): why the call stays
KNOWN = {
    ("models", "_lune_azimuth", "arccos"):
        "the lune width gamma = arccos c of a B1 or B2 spin; it moves the spin "
        "bits of B1 and B2 event logs, not their counts",
    ("models", "hall_g_array", "arccos"):
        "the Hall density amplitude (1 - f) / (8 arccos f); it moves the last "
        "digit of freewill's M for B1 and B2",
}


def dispatched_uses():
    """(module, enclosing function, name) of each use of a DISPATCHED NumPy
    function in the package: an attribute of the module NumPy is imported
    as, or a name imported from it."""
    uses = []
    for path in sorted(Path(singletsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names if a.name == "numpy"}

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr in DISPATCHED):
                uses.append((path.stem, where, node.attr))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                uses.extend((path.stem, where, a.name) for a in node.names if a.name in DISPATCHED)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, None)
    return uses


def test_only_the_known_calls_use_cpu_dispatched_numpy_functions():
    assert Counter(dispatched_uses()) == Counter(KNOWN.keys())


def test_the_scan_sees_a_dispatched_call(tmp_path, monkeypatch):
    # the guard's own negative control: a module calling np.exp is caught
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "extra.py").write_text(
        "import numpy as np\nfrom numpy import log1p\n\n\ndef f(x):\n    return np.exp(x)\n")
    monkeypatch.setattr(singletsim, "__file__", str(tmp_path / "__init__.py"))
    assert dispatched_uses() == [("extra", None, "log1p"), ("extra", "f", "exp")]
