"""Exception types shared across the toolkit."""


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a linear-algebra step fails (singular solve, bad conditioning)."""


class ExtensionInfeasible(RuntimeError):
    """Raised when a feasibility-certified operation is given an infeasible map."""


class GroupExtensionError(RuntimeError):
    """Raised when group extension fails: the dynamics is not a group on V,
    uniqueness is not certified (V is reducible, or the certificate fails),
    or randomized starts of the cross-check disagree with the certificate."""


class ResolventFamilyError(RuntimeError):
    """Raised when the resolvent-family route exhausts its parameter escalation
    without producing a conditionally completely positive generator.

    Carries ``advice`` (the recommended fallback entry point) and ``attempts``
    (one record per tried parameter value).
    """

    def __init__(self, message, advice="extend_generator", attempts=None):
        super().__init__(message)
        self.advice = advice
        self.attempts = attempts if attempts is not None else []
