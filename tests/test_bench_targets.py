"""The benchmark's traced run patches functions by name: every name it lists
must still resolve in the package, so that a rename fails here."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets() -> tuple[tuple[str, str, str, str], ...]:
    """``TARGETS`` of bench/tracer.py, read from its source, not imported."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(n, ast.Name) and n.id == "TARGETS" for n in names):
                return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def test_every_tracer_target_resolves_as_the_tracer_installs_it():
    targets = tracer_targets()
    assert targets
    for name, module_name, path, kind in targets:
        # As `Tracer.install` finds each original.
        module = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{name}: {module_name}.{path} is gone"
        assert callable(vars(owner)[attr]), name
        assert kind in ("span", "count"), name
