"""Exception types shared across the engine."""


class DegenkitError(Exception):
    """Base class for all engine errors."""


class CatalogError(DegenkitError):
    """A sector catalog violates one of its structural invariants."""


class SingularPairingError(CatalogError):
    """Pairing matrix is not invertible.

    Carries ``null_vector``, a nonzero coordinate vector v with
    pairing(v, .) identically zero.
    """

    def __init__(self, message, null_vector):
        super().__init__(message)
        self.null_vector = tuple(null_vector)


class GluingError(DegenkitError):
    """Root labels of the two sides cannot be matched."""


class EnumerationBudgetError(DegenkitError):
    """Enumeration exceeded its node budget.

    ``partial`` holds the splittings produced before the budget ran out so a
    caller can resume or report progress; ``visited`` is the node count.
    """

    def __init__(self, message, partial=(), visited=0):
        super().__init__(message)
        self.partial = list(partial)
        self.visited = visited


class MissingKeysError(DegenkitError):
    """Evaluation referenced correlator keys absent from the table."""

    def __init__(self, keys):
        self.keys = sorted(keys, key=lambda k: k.sort_token())
        super().__init__(
            "invariant table is missing %d key(s)" % len(self.keys)
        )


class ParityError(DegenkitError):
    """Sign bookkeeping hit a non-homogeneous class."""


class ScaleError(DegenkitError):
    """Requested computation is beyond the supported size."""


class InfeasibleInstanceError(DegenkitError):
    """Branch data fails the Riemann-Hurwitz feasibility gate."""
