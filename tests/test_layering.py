"""Module layering: intra-package imports point only to earlier layers."""

import ast
from collections import Counter
from pathlib import Path

from infomarket.config import SimParams
from infomarket.harness import Simulation, build_overlays

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "infomarket"

# Each module may import, at module level, only from modules before it.  The
# package root (``from . import __version__``) sits below every layer.
LAYERS = (
    "__init__", "errors", "config", "econ", "agents", "policy", "market", "ipi",
    "harness", "cli",
)


def _intra_imports(node: ast.AST) -> list[str]:
    """Package modules named by one import statement (relative or absolute)."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] != "infomarket":
                return []
            parts = parts[1:]
        elif node.level == 1:
            parts = node.module.split(".") if node.module else []
        else:
            return []
        if parts:
            return [parts[0]]
        return [a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__"
                for a in node.names]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] if "." in a.name else "__init__"
                for a in node.names if a.name.split(".")[0] == "infomarket"]
    return []


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def test_module_level_imports_point_down():
    trees = _trees()
    assert set(trees) == set(LAYERS)
    upward = [
        (module, target)
        for module, tree in trees.items()
        for node in tree.body
        for target in _intra_imports(node)
        if LAYERS.index(target) >= LAYERS.index(module)
    ]
    assert upward == []


def test_no_function_level_intra_package_import():
    # A deferred import is how a cycle hides; the layering leaves none to hide.
    found = {
        (module, func.name, target)
        for module, tree in _trees().items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        for target in _intra_imports(node)
    }
    assert found == set()


# Public names that no code in `src/` calls, kept on purpose.
UNREFERENCED_OK = {
    # Reference kernel of acceptance criteria 1 and 11: the closed-form factor ratio.
    ("econ", "factor_ratio"),
    # Reference kernel of acceptance criterion 1: the finite-difference elasticity.
    ("econ", "log_cost_elasticity_fd"),
    # Reference kernel of acceptance criterion 1: the cost-share ordering over a price grid.
    ("econ", "cost_asymmetry_report"),
    # Drives one world tick by hand, as the benchmark and the tests do; every
    # experiment steps its worlds in batches.
    ("harness", "Simulation.advance"),
    # The CES exponent: `tests/test_acceptance.py` (criterion 2's brute-force
    # cost) and `tests/test_econ.py` read it; the dual cost forms in `src/`
    # work in the elasticity instead.
    ("econ", "CesTechnology.rho"),
}


def _attributes_read(node: ast.AST) -> set[str]:
    """Every attribute (``x.name``) the node's subtree reads."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _referenced_names(node: ast.AST) -> set[str]:
    """Every name and attribute the node's subtree reads."""
    return _attributes_read(node) | {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def test_every_public_definition_is_used_in_src():
    # A formula only tests call is a copy the simulator does not run.
    # Each top-level node's names and attributes, read once; a definition is
    # used when some node other than itself reads its name, and a class's
    # method when some other node, or another statement of its class, reads
    # it as an attribute (a local variable of the same name does not count).
    nodes = [(module, node, _referenced_names(node), _attributes_read(node))
             for module, tree in _trees().items() for node in tree.body]
    readers = Counter(name for _, _, names, _ in nodes for name in names)
    attribute_readers = Counter(name for _, _, _, attributes in nodes for name in attributes)
    unused = {
        (module, node.name)
        for module, node, names, _ in nodes
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and readers[node.name] - (node.name in names) == 0
    }
    unused |= {
        (module, f"{node.name}.{method.name}")
        for module, node, _, attributes in nodes if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        and attribute_readers[method.name] - (method.name in attributes) == 0
        and not any(method.name in _attributes_read(s) for s in node.body if s is not method)
    }
    assert unused - UNREFERENCED_OK == set()
    assert UNREFERENCED_OK <= unused  # an allowlisted name that gained a caller leaves the list


def _call_sites(name: str) -> list[tuple[str, int]]:
    """(module, line) of every call in `src/` to a function or class of this name."""
    return [
        (module, node.lineno)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name)
             else getattr(node.func, "attr", None)) == name
    ]


def test_market_step_has_one_call_site():
    # One tick, written once: every world, alone or in a batch, clears through it.
    sites = _call_sites("market_step")
    assert len(sites) == 1, sites


def test_supply_and_clearing_are_called_only_in_market():
    # One clearing routine: the tick (its weight lanes included) and the
    # welfare anchors supply and solve the verification fixed point in
    # `market`; `harness` calls neither.
    for name in ("supply_response", "solve_verification_fixed_point"):
        assert {module for module, _line in _call_sites(name)} == {"market"}, name


def test_a_world_carries_only_its_last_row_and_next_posture():
    # Between ticks a world is its record row, the posture it posts next and
    # its last exogenous row; nothing else a tick computes is kept.
    carried = {"params", "populations", "w_so", "w_min", "state", "platform", "last_overlay"}
    params = SimParams().with_overrides({"agents.n_producers": 30, "agents.n_consumers": 60})
    sim = Simulation(params, master_seed=42)
    assert set(vars(sim)) == carried
    for ov in build_overlays(3, (), params):
        assert sim.advance(ov) is sim.state
    assert set(vars(sim)) == carried


def test_no_code_builds_a_policy_config():
    # A world's instruments are its parameters' policy section; a
    # `PolicyConfig` only comes from outside, and `Simulation` folds it in.
    assert _call_sites("PolicyConfig") == []


def test_no_tick_loop_calls_advance():
    # Every experiment runs its worlds through `run_worlds`, whose batches
    # step in `_run_batch`; `Simulation.advance` is for driving one world by hand.
    sites = [
        (module, node.lineno)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "advance"
    ]
    assert sites == []
