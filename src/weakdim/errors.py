"""Exception hierarchy for graph validation, formula dispatch and solvers."""


class WeakDimError(Exception):
    """Base class for all library errors."""


class VertexOutOfRange(WeakDimError):
    pass


class SelfLoop(WeakDimError):
    pass


class DuplicateEdge(WeakDimError):
    pass


class NotConnected(WeakDimError):
    pass


class EdgeListFormatError(WeakDimError):
    """Malformed edge-list or vertex-set text input."""


class InvalidFamilyParameters(WeakDimError):
    pass


class SameVertex(WeakDimError):
    pass


class TrivialGraph(WeakDimError):
    """Operation undefined on the one-vertex graph."""


class NotATree(WeakDimError):
    pass


class WrongTreeClass(WeakDimError):
    """Tree-specific construction applied to the wrong kind of tree."""


class ParameterOutOfRange(WeakDimError):
    pass


class FormulaNotCovered(WeakDimError):
    """No closed form for these parameters; use the exact solver instead."""


class TooLarge(WeakDimError):
    """Instance exceeds a size limit: the exhaustive search's vertex cap,
    or the estimated memory of the distance matrix or the cover model."""


class KaboveKappa(WeakDimError):
    """Requested threshold k exceeds the criterion's limit, kappa for the
    difference sum (``criterion`` "sum") or kappa' for the distinguisher
    count ("count"), so no feasible set exists. Carries the limit and,
    when available, a witness pair whose sum (or count) equals it."""

    def __init__(self, k, kappa, witness=None, criterion="sum"):
        self.k = k
        self.kappa = kappa
        self.witness = witness
        self.criterion = criterion
        name = "kappa'" if criterion == "count" else "kappa"
        msg = f"k={k} infeasible: {name}={kappa}"
        if witness is not None:
            msg += f" (witness pair {witness})"
        super().__init__(msg)


def check_k(k, limit=None, witness=None, criterion="sum") -> None:
    """The one range check on a threshold: ``ParameterOutOfRange`` below 1,
    ``KaboveKappa`` above ``limit`` (the criterion's kappa, when known)."""
    if k < 1:
        raise ParameterOutOfRange(f"k must be positive, got {k}")
    if limit is not None and k > limit:
        raise KaboveKappa(k, limit, witness, criterion)
