"""Exception types shared across the package."""


class OutOfRange(ValueError):
    """An input exceeded a configured computation cap."""


class HalfDegreeUnsupported(ValueError):
    """Requested the minimal polynomial of a half-degree Weil number.

    Only the full-degree construction is implemented; half-degree cases
    are detected and reported but never expanded into polynomials.
    """


class ShapeError(ValueError):
    """A polynomial does not have the monic degree-2g Weil shape."""


class ParseError(ValueError):
    """A polynomial text file could not be parsed."""


class BrokenInvariant(ArithmeticError):
    """An internal invariant failed: a value the mathematics rules out.

    Not a ``ValueError``, so the command line reports it as an internal
    error (exit 3), never as a usage error.
    """
