"""Exception hierarchy shared by all delaystab modules, and the one way
their messages show a value."""


# Python 3.11 and later refuse to write an int of more than 4300 digits in
# decimal.  An int past this many bits (about 4214 digits) is shown by its
# bit length, on every version.
_LONG_BITS = 14_000


def _shown(value, show=str) -> str:
    """show(value) for an error message, with every int past _LONG_BITS,
    alone or an item of a (nested) tuple or list, shown by its sign and bit
    length, not converted in full."""
    if isinstance(value, int) and abs(value).bit_length() > _LONG_BITS:
        return f"{'-' if value < 0 else ''}<an integer of {abs(value).bit_length()} bits>"
    if type(value) in (tuple, list):
        items = ", ".join(_shown(item, repr) for item in value)
        if type(value) is list:
            return f"[{items}]"
        return f"({items},)" if len(value) == 1 else f"({items})"
    return show(value)


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
