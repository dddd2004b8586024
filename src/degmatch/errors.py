"""Exception types shared across the package, the one rule by which an
error message echoes an input (at most ``_SHOWN`` characters, then "…"),
and the one rule by which input text is read as integers: ASCII digits
with an optional sign (``_integers``).

Every domain error carries a short machine-readable ``code`` so the CLI can
emit stable one-line diagnostics. This module imports nothing.
"""

_SHOWN = 32  # an error message echoes an input up to this many characters, then "…"


class DegmatchError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "INTERNAL"


class ValidationError(DegmatchError, ValueError):
    """Malformed or out-of-range input."""

    code = "VALIDATION"


class NotGraphicError(DegmatchError, ValueError):
    """An operation that requires a graphic sequence received a non-graphic one."""

    code = "NOT_GRAPHIC"

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class InfeasibleDeltaError(DegmatchError, ValueError):
    """Requested growth degree cannot be realized in the current graph."""

    code = "INFEASIBLE_DELTA"

    def __init__(self, message, feasible=()):
        super().__init__(message)
        self.feasible = tuple(sorted(feasible))


class CapExceededError(DegmatchError, RuntimeError):
    """Instance is too large for an exhaustive operation's configured cap."""

    code = "CAP_EXCEEDED"


class InternalConsistencyError(DegmatchError, RuntimeError):
    """Two independent computations of the same quantity disagreed."""

    code = "INTERNAL_CONSISTENCY"


def _shown(text, form=str):
    """``form(text)``, cut to ``_SHOWN`` characters and "…" if longer."""
    return form(text) if len(text) <= _SHOWN else form(text[:_SHOWN]) + "…"


def _shown_int(x):
    """``x`` in decimal by ``_shown``; a non-int by ``str``."""
    if not isinstance(x, int):
        return _shown(str(x))
    # str refuses a huge int, so drop all but a few more than _SHOWN of its
    # at least bit_length * log10(2) digits first
    drop = max(0, x.bit_length() * 30102999566 // 10**11 - _SHOWN - 1)
    return _shown(("-" if x < 0 else "") + str(abs(x) // 10**drop))


def _refused(message, *values, error=ValidationError):
    """``error(message)`` with each value in a ``{}``: a str by ``_shown(v, repr)``,
    an int that is not a bool by ``_shown_int``, anything else by ``_shown(repr(v))``."""
    return error(message.format(*(
        _shown(v, repr) if isinstance(v, str)
        else _shown_int(v) if isinstance(v, int) and not isinstance(v, bool)
        else _shown(repr(v))
        for v in values
    )))


def _integers(entries: list[str]) -> list[int]:
    """Stripped entry texts as ints. Each must be ASCII digits with an optional
    sign (``int`` reads ``1_0`` and ``٣``); one check of the join decides all."""
    joined = "".join(entries)
    if not joined.isascii() or "_" in joined:
        raise ValueError("an entry is not ASCII decimal digits")
    return list(map(int, entries))
