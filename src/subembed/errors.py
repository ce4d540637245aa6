"""Exception types shared across the package."""


class SubembedError(Exception):
    """Base class for all errors raised by this package."""


class CycleParseError(SubembedError, ValueError):
    """Malformed cycle notation. Carries the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class GroupFileError(SubembedError, ValueError):
    """Malformed group file. Carries the 1-based line number of the problem."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ResourceCapError(SubembedError, RuntimeError):
    """A configured resource cap was exceeded. ``reached`` is the partial count."""

    def __init__(self, message: str, reached: int):
        super().__init__(f"{message} (reached {reached})")
        self.reached = reached


class InvariantError(SubembedError, RuntimeError):
    """A library invariant failed: the result computed is inconsistent with
    itself, which means a bug in this package, not bad input."""
