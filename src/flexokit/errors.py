"""Exception hierarchy shared by all flexokit modules, and ``located``,
which names where in a document an error arose."""

from contextlib import contextmanager


class FlexokitError(Exception):
    """Base class for all errors raised by this package."""


class DesignError(FlexokitError):
    """A design document violates the schema or a domain invariant.

    ``path`` locates the offending field (dotted, e.g. ``flexures.leg.ribs``)
    when the error was detected during parsing; it is empty for errors raised
    by direct construction of domain objects.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class DanglingReferenceError(DesignError):
    """A document references a name that is not defined anywhere."""

    def __init__(self, name: str, path: str = ""):
        super().__init__(f"reference to undefined name {name!r}", path)


class GeometryError(FlexokitError):
    """Requested geometry cannot be realized."""


class AlwaysJammedError(GeometryError):
    """Jamming heads already touch at zero bend (spacing <= head diameter)."""


class UnreachableLimitError(GeometryError):
    """No jam angle exists for the given feature geometry."""


class ContactAtRestError(GeometryError):
    """Extensional features touch before any bending occurs."""


class TargetRangeError(FlexokitError):
    """An inverse-design target lies outside the attainable range, which
    the message states."""


class OverPullError(FlexokitError):
    """Tendon pull exceeds the limb's total jam capacity."""


class EmptyLimbError(FlexokitError):
    """A limb has no joints to actuate."""


@contextmanager
def located(path: str):
    """Prefix ``<path>: `` to the message of a FlexokitError raised inside."""
    try:
        yield
    except FlexokitError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
