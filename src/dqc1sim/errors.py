"""Exception types shared across the toolkit."""


class Dqc1Error(Exception):
    """Base class for every error raised by this package."""


class ContractError(Dqc1Error):
    """An operation was called with arguments that violate its contract."""


class WiringError(Dqc1Error):
    """A gate references qubit indices that are out of range or overlap."""


class UnitarityError(Dqc1Error):
    """An embedded matrix fails the unitarity tolerance."""


class ValidationError(Dqc1Error):
    """A circuit or document violates a structural invariant.

    `problems` carries the individual violations when a Circuit or a
    Dqc1Circuit reports everything wrong with it as it is built.
    """

    def __init__(self, message: str, problems=None):
        super().__init__(message)
        self.problems = list(problems or [])


class ParseError(Dqc1Error):
    """A document could not be parsed. `location` points at the bad field."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class ResourceError(Dqc1Error):
    """The request exceeds a configured size cap."""


class PostselectionImpossibleError(Dqc1Error):
    """The requested postselection event has zero probability."""
