"""Exception hierarchy shared by all engines."""


class AoiError(Exception):
    """Base class for all library errors."""


class NetworkValidationError(AoiError):
    """The network description violates the single-source model."""


class MalformedNetwork(NetworkValidationError):
    pass


class NonPositiveRate(NetworkValidationError):
    pass


class NonFiniteRate(NetworkValidationError):
    pass


class SelfLoop(NetworkValidationError):
    pass


class MultipleSources(NetworkValidationError):
    pass


class UnreachableNode(NetworkValidationError):
    pass


class SourceHasIncomingEdge(NetworkValidationError):
    pass


class EmptySubset(AoiError):
    pass


class SubsetContainsVirtualSource(AoiError):
    pass


class NetworkTooLarge(AoiError):
    pass


class OutsideConvergenceRegion(AoiError):
    pass


class TooStiff(AoiError):
    """A CDF needs more uniformization jumps than ``exact.MAX_JUMPS``."""


class EmptyWindow(AoiError):
    pass


class WindowNotCoupled(AoiError):
    """A simulated column has not heard the source by its kept window's start."""


class IntegralOverflow(AoiError):
    """A window integral, batch mean, sample moment or MGF of ages is not finite."""


class IntegralUnderflow(AoiError):
    """A window integral or sample variance of ages is below the normal floats."""


class TooFewEvents(AoiError):
    """The kept window holds too few events for batch-means error bars."""


class ThresholdNotRequested(AoiError):
    pass
