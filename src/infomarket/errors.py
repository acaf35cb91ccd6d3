"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Bad configuration: unknown key, unparsable value, or invalid bound."""


class AssumptionViolated(ValueError):
    """A technology pair violates the substitutability ordering sigma_L > 1 > sigma_H."""


class NoConvergence(RuntimeError):
    """The verification fixed point missed its tolerance; the message names
    the first lane of the solve that missed it."""


class DegenerateAnchors(ValueError):
    """Deadweight-loss anchors collapse: the planner optimum does not exceed the worst case."""


class WeightSumViolation(ValueError):
    """Index weights are negative or do not sum to one."""


class ZeroBaseline(ValueError):
    """Churn-gap proxy evaluated against a zero baseline churn rate."""
