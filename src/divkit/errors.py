"""Exception hierarchy shared across the package.

Every error raised by divkit derives from :class:`DivkitError`, so callers
(including the CLI) can map failure classes to exit codes without string
matching.
"""


class DivkitError(Exception):
    """Base class for all divkit errors."""


class EvaluationError(DivkitError):
    """A generating function produced a non-finite value; names the argument."""


class GeneratorValidityError(DivkitError):
    """A generator failed its validity certificate, or an improper score was requested."""


class DomainError(DivkitError):
    """A parameter is outside its admissible range (e.g. negative exponent)."""


class RepresentationError(DivkitError):
    """Density representations are incompatible (mixed kinds, mismatched grids)."""


class SupportError(DivkitError):
    """The gamma=0 cross-entropy term is undefined: g > 0 where f = 0."""


class DegenerateModelError(DivkitError):
    """A score denominator vanished (zero model integral)."""


class CliUsageError(DivkitError):
    """Malformed flag or spec text (unknown name, wrong parameter count, not a number)."""
