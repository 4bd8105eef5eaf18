"""Exception hierarchy shared by all delaystab modules, and the one way
their messages show a value and admit a caller's real number or count."""

import math
import numbers


# Python 3.11 and later refuse to write an int of more than 4300 digits in
# decimal.  An int past this many bits (about 4214 digits) is shown by its
# bit length, on every version.
_LONG_BITS = 14_000

# The most samples, delays or grid nodes one call may ask for.  The
# simulator's delay history is sampled by one c_l_history call a step, and
# it and run's outflow buffer each hold a float a step: 2**24 samples take
# about 10 s to sample and 134 MB an array.  SimConfig bounds the profile's
# nx + 1 samples alike, sweep its grid's nodes and trace_boundary its
# delays, each refused before any array is built.
_DELAY_SAMPLES = 2**24


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


def _real(name: str, value, low: float | None = None, closed: bool = False) -> float:
    """value as a float, the one rule that admits a caller's real number.

    It must be a numbers.Real (an int, bool, float, numpy real scalar or
    Fraction; a str, None, complex or Decimal raises InvalidParameter,
    naming its type), finite, and with a low bound > low (>= low where
    closed).  Anything not finite, an int past the float range included,
    raises NonFiniteField; a finite value below the bound raises
    InvalidParameter.  The message, built only then, reads "{name} must be
    finite[ and > low], got {value}", with such an int shown as "a value
    past the float range" (or by its bit length, as _shown shows it).
    """
    # float and int go first: the ABC's own check costs about 0.4 us a call
    if not isinstance(value, (float, int, numbers.Real)):
        raise InvalidParameter(f"{name} must be a real number, got {type(value).__name__}")
    try:
        real = float(value)
        finite = math.isfinite(real)
    except OverflowError:
        real, finite = _shown(value, lambda _: "a value past the float range"), False
    if finite and (low is None or (real >= low if closed else real > low)):
        return real
    bound = "" if low is None else f" and {'>=' if closed else '>'} {low}"
    error = InvalidParameter if finite else NonFiniteField
    raise error(f"{name} must be finite{bound}, got {real}")


def _count(name: str, value, low: int, high: int | None = None) -> int:
    """value as an int, the one rule that admits a caller's count.

    It must be an int (a bool or numpy integer included) or a finite real
    of integral value, so 10.0 is taken as 10; a value that is neither
    raises as _real does (NonFiniteField for NaN and +-inf).  A value that
    is not integral, or outside [low, high], raises InvalidParameter
    reading "{name} must be an integer >= low, got {value}" ("from low to
    high" where high is given).  An int is compared as an int, so one past
    the float range is admitted where no high bounds it.
    """
    count = int(value) if isinstance(value, (int, numbers.Integral)) else _real(name, value)
    if count % 1 == 0 and low <= count and (high is None or count <= high):
        return int(count)
    bound = f">= {low}" if high is None else f"from {low} to {high}"
    raise InvalidParameter(f"{name} must be an integer {bound}, got {_shown(value)}")


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
    """A real argument is NaN, infinite or an int past the float range."""


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
