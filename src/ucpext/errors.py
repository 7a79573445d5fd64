"""Exception types shared across the toolkit."""


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class Failure(RuntimeError):
    """Raised when a computation on valid input ends without its result: a
    numerical breakdown, an infeasible map, or a claim left unproved.

    A CLI report records it as ``failed`` with the error block ``{"type",
    "message", **fields}``; ``fields`` holds a subclass's extra entries.
    """

    @property
    def fields(self) -> dict:
        return {}


class NumericalError(Failure):
    """Raised when a linear-algebra step fails (singular solve, bad conditioning)."""


class ExtensionInfeasible(Failure):
    """Raised when a feasibility-certified operation is given an infeasible map."""


class GroupExtensionError(Failure):
    """Raised when group extension fails: the dynamics is not a group on V,
    uniqueness is not certified (V is reducible, or the certificate fails),
    or randomized starts of the cross-check disagree with the certificate."""


class Undecided(Failure):
    """Raised when the evidence computed decides neither way: a claim that is
    neither proved nor refuted.  It is never a rejection of the input.

    ``reason`` names the case in a few words (``fields``), for example
    ``"cross-check failed"``; the message names the sample or solve behind it.
    """

    def __init__(self, message, reason=None):
        super().__init__(message)
        self.reason = reason

    @property
    def fields(self) -> dict:
        return {} if self.reason is None else {"reason": self.reason}


class ResolventFamilyError(Failure):
    """Raised when the resolvent-family route exhausts its parameter escalation
    without producing a conditionally completely positive generator.

    Carries ``advice`` (the recommended fallback entry point) and ``attempts``
    (one record per tried parameter value).
    """

    advice = "extend_generator"

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts if attempts is not None else []

    @property
    def fields(self) -> dict:
        return {"advice": self.advice,
                "attempts": [{"omega": a.get("omega"), "failure": a.get("failure")}
                             for a in self.attempts]}
