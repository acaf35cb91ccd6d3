"""Outside-in tracing of the infomarket package for the benchmark's traced run.

The program carries no tracing code.  `Tracer.install` replaces each named
function with a wrapper that records a span, and it replaces every binding
callers use: a module that did ``from .market import market_step`` holds its
own reference, so patching ``infomarket.market.market_step`` alone would miss
every call made through ``infomarket.harness``.  `Tracer.uninstall` puts the
originals back.

Spans are aggregated in memory per (name, parent span name) edge: call count,
total time, and self time (total minus the time covered by child spans).
Time outside every top-level span is not attributed to any layer; callers
report it as the untraced remainder.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

PACKAGE = "infomarket"

# (span name, module, attribute path, kind).  "span" records time and
# counts; "count" only counts calls and charges them to the enclosing span,
# for functions called so often that timing them would swamp their cost.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("econ.unit_cost", "infomarket.econ", "unit_cost", "span"),
    ("agents.draw_producers", "infomarket.agents", "draw_producers", "span"),
    ("agents.draw_consumers", "infomarket.agents", "draw_consumers", "span"),
    ("agents.platform_update", "infomarket.agents", "platform_update", "span"),
    ("market.welfare_anchors", "infomarket.market", "welfare_anchors", "span"),
    ("market.static_equilibrium_welfare", "infomarket.market",
     "static_equilibrium_welfare", "span"),
    ("market.solve_verification_fixed_point", "infomarket.market",
     "solve_verification_fixed_point", "span"),
    ("market.supply_response", "infomarket.market", "supply_response", "span"),
    ("market.market_step", "infomarket.market", "market_step", "span"),
    ("market.consumer_cdf", "infomarket.market", "ConsumerPool.cdf", "count"),
    ("ipi.synthesize_log", "infomarket.ipi", "synthesize_log", "span"),
    ("ipi.proxy_composite", "infomarket.ipi", "proxy_composite", "span"),
    ("ipi.endogenous_weights", "infomarket.ipi", "endogenous_weights", "span"),
    ("policy.adaptive_tax", "infomarket.policy", "adaptive_tax", "span"),
    ("harness.simulation_init", "infomarket.harness", "Simulation.__init__", "span"),
    ("harness.advance", "infomarket.harness", "Simulation.advance", "span"),
    ("harness.summary_stats", "infomarket.harness", "summary_stats", "span"),
    # The package has no public persistence function; every experiment
    # writes its output directory through this one.
    ("harness.persist", "infomarket.harness", "_write_outputs", "span"),
    ("config.with_overrides", "infomarket.config", "SimParams.with_overrides", "span"),
)


class Tracer:
    """Aggregated spans of the calls made while installed."""

    def __init__(self) -> None:
        # (name, parent name or None) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str | None], list[float]] = {}
        self.top_s = 0.0  # time covered by top-level spans
        self.bindings: list[str] = []  # "module.attr" of every patched binding
        self._stack: list[list[Any]] = []  # [name, child seconds]
        self._patches: list[tuple[Any, str, Any]] = []

    def _record(self, name: str, parent: str | None, calls: int, total: float, own: float) -> None:
        rec = self.edges.get((name, parent))
        if rec is None:
            rec = self.edges[(name, parent)] = [0, 0.0, 0.0]
        rec[0] += calls
        rec[1] += total
        rec[2] += own

    def _span(self, name: str, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                _, child = stack.pop()
                parent = stack[-1][0] if stack else None
                self._record(name, parent, 1, dt, dt - child)
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._record(name, stack[-1][0] if stack else None, 1, 0.0, 0.0)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, module_name, path, kind in TARGETS:
            module = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = (self._span if kind == "span" else self._count)(name, original)
            sites = [(owner, attr, f"{module_name}.{path}")]
            if owner is module:  # from-imported aliases in other modules
                sites += [(m, k, f"{m.__name__}.{k}") for m in modules
                          for k, v in vars(m).items()
                          if v is original and (m, k) != (module, attr)]
            for site, key, label in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapped)
                self.bindings.append(label)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def calls(self, name: str, parent: str | None = "*") -> int:
        return int(sum(r[0] for (n, p), r in self.edges.items()
                       if n == name and (parent == "*" or p == parent)))

    def total_s(self, name: str) -> float:
        return sum(r[1] for (n, _), r in self.edges.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(r[2] for (n, _), r in self.edges.items() if n == name)

    def table(self) -> list[dict[str, Any]]:
        """Every recorded edge, for writing out after the run."""
        return [
            {"name": n, "parent": p, "calls": int(r[0]), "total_s": r[1], "self_s": r[2]}
            for (n, p), r in sorted(self.edges.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
        ]
