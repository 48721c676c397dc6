"""Exception hierarchy for valnet."""


class ValnetError(Exception):
    """Base class for all valnet errors."""


class DomainMismatchError(ValnetError):
    """An operation received configurations or sets over the wrong variables."""


class KindError(ValnetError):
    """A valuation of the wrong kind was passed to an operation."""


class MassError(ValnetError):
    """Basic probability assignment axioms violated (negative or non-unit mass)."""


class UtilityError(ValnetError):
    """A utility table holds a value that is not a finite number."""


class TotalConflictError(ValnetError):
    """Two belief functions are in total conflict (normalization constant is zero)."""


class NetworkError(ValnetError):
    """Structurally broken network (undeclared variables, bad shapes, cycles)."""


class NotWellDefinedError(ValnetError):
    """Solving was attempted on a network that fails validation."""

    def __init__(self, report):
        self.report = report
        super().__init__("network is not well-defined:\n" + "\n".join(report.lines()))


class SolverError(ValnetError):
    """Solver-level failure (resource guard, monotonicity assertion, ...)."""


def _refuse_past(limit, count, doing, *args):
    """Every size limit's check: refuse work of ``count`` units past ``limit``.

    ``doing`` is a ``str.format`` template with the count as ``{0}`` and ``args`` after it.
    """
    if count > limit:
        raise SolverError("%s, more than the limit of %d" % (doing.format(count, *args), limit))


class ProblemFormatError(ValnetError):
    """Problem file could not be parsed."""

    def __init__(self, message, line):
        self.line = line
        super().__init__("line %d: %s" % (line, message))
