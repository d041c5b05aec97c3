"""Exception and warning types shared across the package."""


class EngineError(Exception):
    """Base class for all domain errors raised by this package."""


class DegeneratePhaseError(EngineError):
    """The composed transformation is the identity; the requested quantity is undefined."""


class NoSolutionError(EngineError):
    """An inversion or root bracket has no solution for the given inputs."""


class NonConvergenceError(EngineError):
    """A closed-form inversion failed its own check: its forward map misses the inputs."""


class NoEngineRegimeError(EngineError):
    """No squeezing value yields positive net work for this configuration."""


class NotAnEngineError(EngineError):
    """The cycle absorbs no heat or produces no net work at this operating point."""


class TruncationError(EngineError):
    """Finite-basis truncation leaks more probability than the configured tolerance."""


class GammaPoleError(EngineError):
    """log-Gamma evaluated at a nonpositive integer."""


class IdentityViolationError(EngineError):
    """|alpha|^2 - |beta|^2 deviates from 1 beyond tolerance; transcription or precision failure."""


class ImaginaryCouplingError(EngineError):
    """Im{alpha*beta} too large for the real-coupling protocol mapping."""


class PhotonNumberError(EngineError):
    """Nonpositive photon number where a positive count is required."""


class ConfigError(EngineError):
    """Scenario configuration failed validation."""


class RegimeWarning(UserWarning):
    """An approximation is being used outside its validity regime."""


class DegenerateLimitWarning(UserWarning):
    """Inputs sit at a degenerate limit; the returned value is a limiting representative."""

