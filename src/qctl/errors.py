"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter is outside the domain a routine is defined on."""


class ConfigError(ValueError):
    """An experiment configuration document is invalid.

    ``path`` identifies the offending field, e.g. ``"trajectories.dt"``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):
        # Rebuilt from both arguments, so a pickled copy, such as one sent by
        # a forked CSV writer, keeps its class, path and message.
        return type(self), (self.path, self.message)


class LowDensityError(RuntimeError):
    """The velocity field was requested where the density is below the floor."""


class NumericalGuardError(RuntimeError):
    """A numerical sanity guard tripped (truncation, normalization, realness)."""
