"""Exception types shared across the package."""


class WgnLinkError(Exception):
    """Base class for package-specific failures."""


class AlignmentError(WgnLinkError):
    """Cross-correlation peak too weak to align the captures.

    Unrelated captures cause it, and so can a frequency offset or phase drift
    that decorrelates captures of the same noise instantiation.
    """


class ConfigError(WgnLinkError):
    """Experiment configuration failed to parse or violates an invariant."""
