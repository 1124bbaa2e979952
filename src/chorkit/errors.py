"""Exception types shared across the package."""


class ChorError(Exception):
    """Base class for all errors raised by chorkit."""


class ParseError(ChorError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class BindError(ChorError):
    """A recursion call outside its definition, or a shadowing definition."""


class DupTagError(ChorError):
    """A message tag occurs in more than one send or more than one receive."""


class DupProcessError(ChorError):
    """A network defines the same process name twice."""


class UnknownProcess(ChorError):
    """A state lookup or update names a process outside the state's domain."""


class GuardNotBoolean(ChorError):
    """A conditional guard evaluated to a non-boolean value."""


class TagsExhausted(ChorError):
    """A run needs a fresh tag above the largest that fits in 64 bits."""


class NotACom(ChorError):
    """Runtime expansion was requested at a node that is not a communication."""


class NotProjectable(ChorError):
    """Projection is undefined: a conditional's branches disagree at some
    process that is not the decider."""


class IllFormed(ChorError):
    """A runtime choreography cannot be rewritten to the canonical
    receives-then-program shape."""


class NonEmptyQueue(ChorError):
    """A synchronous-only operation was applied to a network with queued
    messages."""
