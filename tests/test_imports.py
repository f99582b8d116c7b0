"""No module of the library imports a name that it never uses, no private
module-level name is left unused by the package, the public surface is the
pinned list below, and the README's examples run."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import idsense

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "idsense"


def loaded_names(tree: ast.AST) -> set[str]:
    """Names loaded anywhere in `tree`, including inside quoted annotations."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            loaded |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                       if isinstance(n, ast.Name)}
    return loaded


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` and never loaded."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    loaded = loaded_names(tree)
    return sorted(name for name in imported if name not in loaded)


def private_names(source: str) -> list[str]:
    """Names starting with one underscore that `source` binds at module level:
    functions, classes and assigned names."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` for each private module-level name that no module loads,
    by name or as an attribute (`capacity._shannon`)."""
    used = set()
    for source in sources.values():
        tree = ast.parse(source)
        used |= loaded_names(tree)
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [f"{module}:{name}" for module, source in sorted(sources.items())
            for name in private_names(source) if name not in used]


def test_detects_unused_and_quoted_uses():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom a import b, c as d, e\n"
              "def f(x: 'b | None') -> int:\n    return os.sep\n")
    assert unused_imports(source) == ["d", "e"]


def test_detects_dead_private_names():
    sources = {"a.py": "_USED = 1\n_DEAD = 2\ndef _helper():\n    return _USED\n"
                       "class _Orphan:\n    pass\n__all__ = []\n",
               "b.py": "from . import a\nx = a._helper()\n"}
    assert dead_private_names(sources) == ["a.py:_DEAD", "a.py:_Orphan"]


# the package's __init__ imports to re-export, so every name it binds is used
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_no_dead_private_names():
    assert dead_private_names({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


# Adding or removing a public name is a one-line change to this list.
PUBLIC_SURFACE = [
    "CapacityResult", "DistortionMatrix", "DistortionProfile", "EstimatorTable",
    "IDFeedbackCode", "InputDistribution", "SimReport", "StateDMC", "TransmissionCode",
    "TrialOutcome", "binary_entropy", "brute_force_estimator_distortion",
    "build_id_code", "build_transmission_code", "capacity", "channel",
    "channel_from_dict", "channel_to_dict", "coding", "coloring_value",
    "coloring_values", "det_capacity_distortion", "det_feedback_capacity",
    "distortion_profile", "entropy", "enumerate_typical_set", "errors",
    "estimate_sequence", "estimation", "exact_error_probabilities", "feasible_inputs",
    "fixtures", "grid_capacity_oracle", "hamming_distortion",
    "image_size_bound", "load_channel", "monte_carlo",
    "optimal_estimator", "rand_capacity_distortion", "rand_feedback_capacity",
    "rate_of_code", "run_trial", "sample_state_sequence", "shannon_capacity_avg",
    "sim", "tradeoff_curve", "transmit", "typical_size_bounds", "typicality",
    "validate_channel", "verify",
]


def test_public_surface():
    assert sorted(idsense.__all__) == PUBLIC_SURFACE


def test_readme_examples_run():
    # run quietly, and check the first value printed against its comment
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    printed = io.StringIO()
    for block in blocks:
        with contextlib.redirect_stdout(printed):
            exec(compile(block, "README.md", "exec"), {})
    shown = re.search(r"^print\(.*# (\d+\.(\d+))\.\.\.$", readme, re.MULTILINE)
    first = float(printed.getvalue().split()[0])
    assert round(first, len(shown[2])) == float(shown[1])
