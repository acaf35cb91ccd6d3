"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Bad configuration: unknown key, unparsable value, or invalid bound."""


class AssumptionViolated(ValueError):
    """A technology pair violates the substitutability ordering sigma_L > 1 > sigma_H."""


class NoConvergence(RuntimeError):
    """The verification fixed point missed its tolerance.

    ``lanes`` maps each lane of the solve that missed it to the message that
    lane gives when solved alone; the exception's own message is the first
    lane's.
    """

    def __init__(self, message: str, lanes: dict[int, str] | None = None):
        super().__init__(message)
        self.lanes = lanes or {}


class DegenerateAnchors(ValueError):
    """Deadweight-loss anchors collapse: the planner optimum does not exceed the worst case."""


class WeightSumViolation(ValueError):
    """Index weights are negative or do not sum to one."""


class ZeroBaseline(ValueError):
    """Churn-gap proxy evaluated against a zero baseline churn rate."""
