"""Exception hierarchy.

Three broad families:

* ``InputError`` — malformed user data (bad edges, bad parameters, bad JSON).
* ``SizeGuard`` — a construction would exceed an explicit cell/work budget.
* ``VerificationError`` — a machine-checked claim (matching validity, freeness,
  acyclicity, certificate replay) failed.  Every subclass corresponds to one
  checkable condition so tests can assert the precise failure mode.
"""


class HomboxError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# input validation


class InputError(HomboxError):
    """Malformed input data or parameters."""


class EdgeWrongArity(InputError):
    """An edge does not have exactly r vertices."""


class DegenerateEdge(InputError):
    """An edge repeats a vertex."""


class UnknownVertex(InputError):
    """An edge mentions a vertex outside the declared vertex set."""


class DuplicateEdge(InputError):
    """The same edge (as a set) appears twice."""


class InvalidParams(InputError):
    """Parameters are out of range or inconsistent."""


# ---------------------------------------------------------------------------
# resource limits


class SizeGuard(HomboxError):
    """A construction would exceed the configured size budget.

    Attributes
    ----------
    needed : int or None
        Lower bound on the size the construction would reach, when known.
    limit : int
        The budget that would be exceeded.
    """

    def __init__(self, msg, needed=None, limit=None):
        super().__init__(msg)
        self.needed = needed
        self.limit = limit


# ---------------------------------------------------------------------------
# verification


class VerificationError(HomboxError):
    """A machine-checked structural claim failed."""


class NotFree(VerificationError):
    """A cell claimed to be a free face is not (wrong number of cofacets)."""


class WrongCodimension(VerificationError):
    """A claimed free pair is not a codimension-one cover pair."""


class OrbitCofaceClash(VerificationError):
    """Two members of one orbit share a cofacet, so the orbit cannot be
    removed by disjoint elementary collapses."""


class OrbitNotIndependentlyFree(VerificationError):
    """An orbit step's orbit is not free, or not independently free:
    distinct orbit members pair with the same cofacet."""


class MatchingInvalid(VerificationError):
    """The partial matching fails one of its defining identities
    (partition, involution-freeness, cover condition, equivariance)."""


class Stuck(VerificationError):
    """A collapsing or deformation run cannot proceed: no admissible move
    remains although cells are still scheduled for removal."""
