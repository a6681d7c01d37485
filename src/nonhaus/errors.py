"""Exception types shared across the package."""


class NonHausError(Exception):
    """Every domain error raised by this package; its message is the whole diagnostic.

    It is not a ValueError on purpose: the JSON decoder prefixes each
    ValueError raised inside a nested field with that field's path, so a
    domain error met while decoding (an origin index of 0 in a report)
    would reach the user behind a chain of class and field names.
    """


class RecheckFailure(NonHausError):
    """An embedded certificate failed its own re-check."""
