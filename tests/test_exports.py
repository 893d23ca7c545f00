"""Every name that ``mkvlab`` and its submodules export resolves, and has a
caller outside tests or a stated reason to stay."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mkvlab

MODULES = ["mkvlab"] + [
    f"mkvlab.{info.name}"
    for info in pkgutil.iter_modules(mkvlab.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mkvlab"

#: Exported names that no module under src/ or bench/ other than their own
#: uses, each with the reason it stays.
KEPT = {
    "OccupationMeasure": "what stationary_estimate returns; the CLI reads its fields",
    "Samples": "the initial law of given positions, an empirical μ₀",
    "SemiWassersteinResult": "what semi_wasserstein_vbar returns",
    "StabilityReport": "what stability_experiment returns; the CLI reads its fields",
    "VBarKernel": "what vbar_power returns; the CLI passes one to stability_experiment",
    "check_local_bound": "the paper's local-boundedness assumption, sole reader of local_bound",
    "exit_probability_bound": "the paper's exit-probability bound P0 + M(t)/V_m",
    "expected_shortfall": "a measure functional that evaluate_functionals computes",
    "generator_values": "the paper's generator L^μ v, which check_lyapunov_condition reads",
    "ito_residual_full": "the Itô formula for v(t, x, μ) along a particle cloud",
    "lift_gradient": "reached from lions-check through check_structure",
    "mean_square_function": "reached from lions-check through REGISTRY",
    "scenario_names": "the names builtin_scenario accepts",
    "scheutzow_probe": "the replica block that replica experiments build on",
    "semi_wasserstein_vbar": "W_v̄, the distance of the paper's uniqueness condition",
    "wasserstein_exact": "the assignment behind semi_wasserstein_vbar's non-convex branch",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _references(path: Path, skip: str | None = None) -> set:
    """Every name, attribute, imported name and string constant in the code
    of ``path``; a string counts because the benchmark's tracer looks
    functions up by name. With ``skip``, the top-level definition of that
    name and ``__all__`` are left out: they name it without using it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if skip is not None:
        tree.body = [node for node in tree.body if not _names(node, skip)]
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _names(node, name: str) -> bool:
    """Whether the top-level statement ``node`` defines ``name`` or ``__all__``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else []
    return any(getattr(t, "id", None) == "__all__" for t in targets)


def _sources() -> list:
    """The package's modules other than ``__init__``, and the benchmark's."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return sources + sorted((ROOT / "bench").glob("*.py"))


def _home(name: str) -> Path:
    """The file that defines ``name``: a class's or function's module, or
    else the submodule whose ``__all__`` lists it."""
    module = getattr(getattr(mkvlab, name), "__module__", None)
    if module is None:
        (module,) = (
            m for m in MODULES[1:] if name in getattr(importlib.import_module(m), "__all__", ())
        )
    return PACKAGE / f"{module.rsplit('.', 1)[1]}.py"


def test_every_export_has_a_caller_or_a_reason():
    # a name only tests use belongs in the tests (exact answers go to
    # tests/oracles.py), unless KEPT gives its reason to stay
    refs = {path: _references(path) for path in _sources()}
    homes = {name: _home(name) for name in mkvlab.__all__}
    unused = {
        name
        for name, home in homes.items()
        if not any(name in names for path, names in refs.items() if path != home)
    }
    assert sorted(unused - set(KEPT)) == []
    assert sorted(set(KEPT) - unused) == []  # the allowlist holds no name in use


def _public_definitions(path: Path) -> list:
    """The public functions and classes defined at the top level of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_every_public_definition_has_a_caller_or_a_reason():
    # what no __all__ lists is still public: each submodule's top-level
    # functions and classes need a use in src/ or bench/ beyond their own
    # definition, or a reason in KEPT
    refs = {path: _references(path) for path in _sources()}
    unused = [
        name
        for home in sorted(PACKAGE.glob("*.py"))
        for name in _public_definitions(home)
        if name not in KEPT
        and name not in _references(home, name)
        and not any(name in names for path, names in refs.items() if path != home)
    ]
    assert unused == []
