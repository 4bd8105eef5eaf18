"""Exception hierarchy shared by all delaystab modules."""


class DelayStabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(DelayStabError, ValueError):
    """A system parameter is outside its admissible range."""


class NonPositiveAlpha(InvalidParameter):
    pass


class NonPositiveL(InvalidParameter):
    pass


class NonPositiveF(InvalidParameter):
    pass


class NegativeTau(InvalidParameter):
    pass


class NonFiniteField(InvalidParameter):
    pass


class PoleAtMinusAlpha(DelayStabError):
    """The characteristic function was evaluated at (or too close to) its pole."""


class BoundaryZero(DelayStabError):
    """A contour could not be nudged away from a zero on its boundary."""


class QuadratureNonInteger(DelayStabError):
    """A winding-number integral failed to round cleanly to an integer."""


class SampleBudgetExceeded(DelayStabError):
    """A contour count or a frequency scan needed more samples than one call may take."""


class MaxDepthExceeded(DelayStabError):
    """Box subdivision reached a cell it could neither polish nor split
    further: more than one zero at the cluster size, or any cell at depth 40."""


class SolverConsistencyError(DelayStabError):
    """Internal cross-checks of the root finder disagreed."""


class DenominatorVanishes(DelayStabError):
    """The boundary-curve gain expression is singular at this frequency."""


class IncompatibleBoundary(InvalidParameter):
    """Initial concentration profile violates the inflow boundary condition."""


class HistoryMismatch(InvalidParameter):
    """Delay history does not match the initial profile at the outflow end."""


class SimulationOverflow(DelayStabError):
    """A simulated energy left the floating-point range (inf or NaN)."""


class DegenerateWindow(DelayStabError):
    """Too few samples inside the requested fit window."""
