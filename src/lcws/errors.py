"""Exception types shared across the package."""


class DecodeError(ValueError):
    """Raised when a serialized element or wire structure is malformed,
    non-canonical, truncated, or carries an unknown version."""


class PolicySyntaxError(ValueError):
    """Policy text could not be parsed. Carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PolicyNotSatisfiedError(Exception):
    """The key's attributes do not satisfy the access policy, so the
    first data block (and hence the message) cannot be recovered."""


class StoreNotFoundError(KeyError):
    """Requested object id is not present in the store."""

