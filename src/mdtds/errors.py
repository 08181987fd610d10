"""Exception hierarchy shared across the package."""


class MdtdsError(Exception):
    """Base class for all library errors."""


class WordSyntaxError(MdtdsError, ValueError):
    """Malformed word or subgroup text."""


class ResourceLimitError(MdtdsError):
    """A computation would do more units of work than the configured cap.

    ``unit`` names what was counted: ``nodes`` (words a walk visits or a
    ball holds), ``steps`` (the growth model's sphere recurrence),
    ``states`` (the rotation model's residue counts) or ``letters`` (of a
    word whose multiplier would be built).  ``requested`` is the number of
    units needed or, when ``exact`` is false, a number it is known to
    exceed (the true count is too large to be worth computing).  The
    message reads ``needs N <unit>, cap is C``.
    """

    def __init__(self, requested: int, cap: int, *, exact: bool = True,
                 unit: str = "nodes"):
        needs = requested if exact else f"more than {requested}"
        super().__init__(f"needs {needs} {unit}, cap is {cap}")
        self.requested = requested
        self.cap = cap
        self.exact = exact
        self.unit = unit


class EvaluationError(MdtdsError):
    """Base class for failures while evaluating maps along a word.

    ``word`` is attached by the evaluation layer once the failing word is
    known, so the message is rendered lazily.
    """

    noun = "evaluation failed"

    def __init__(self, value, word=None, detail=""):
        super().__init__()
        self.value = value
        self.word = word
        self.detail = detail

    def __str__(self) -> str:
        msg = f"{self.noun} at {self.value}"
        if self.word is not None:
            msg += f" while evaluating {self.word}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


class DomainViolationError(EvaluationError):
    """A map application left the family's domain interval."""

    noun = "value left the domain"


class ExactnessError(EvaluationError):
    """An exact-mode inverse does not exist in the rationals at this point."""

    noun = "no exact inverse"
