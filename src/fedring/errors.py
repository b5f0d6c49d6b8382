"""Exception hierarchy shared across the runtime."""


class FedringError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(FedringError):
    pass


class DtypeMismatch(FedringError):
    pass


class UnknownCommand(FedringError):
    pass


class KindMismatch(FedringError):
    pass


class RemoteError(FedringError):
    """A socket worker's fault that is no FedringError, headed by its type's
    name, or an error reply that names no FedringError."""


class TransportError(FedringError):
    pass


class WorkerUnknown(FedringError):
    pass


class BindError(FedringError):
    pass


class ObjectNotFound(FedringError):
    pass


class DuplicateObject(FedringError):
    pass


class MalformedPayload(FedringError):
    pass


class BadMagic(MalformedPayload):
    """A frame header that does not start with the protocol magic."""


class ConfigError(FedringError):
    pass


class PartyMismatch(FedringError):
    pass


class TripleShapeMismatch(FedringError):
    pass


class TripleReused(FedringError):
    pass


class InsufficientTriples(FedringError):
    pass


class OverflowRangeError(FedringError):
    """Fixed-point encode input exceeds the representable magnitude."""


class EmptyLot(FedringError):
    pass


class EmptyLedger(FedringError):
    pass


class Unachievable(FedringError):
    """No noise multiplier in the search range meets the epsilon target."""


class LotTooLarge(FedringError):
    pass


class ParseError(FedringError):
    pass


class SchemaError(FedringError):
    pass
