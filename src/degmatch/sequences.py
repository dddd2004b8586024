"""Degree sequences: the arranged type everything else builds on, and its constructors.

Sequences are kept arranged (sorted non-increasing), i.e. the usual
convention d_1 >= d_2 >= ... >= d_n.

Text format: comma-separated decimal integers (ASCII digits, an optional
sign) with optional whitespace, e.g. ``"3,2,2,1"``. ``parse_sequence``
counts the split tokens; a degree sequence has few distinct degrees, so
when at most a third of the tokens are distinct each distinct one is
stripped, checked and converted once and the arranged sequence is built
from the counts, with no conversion or sort per entry. Any other text is
read in one bulk pass of C-level calls (strip, one ASCII check of the
joined entries, ``int``) and sorted; only a rejected text is searched
further, by halving, to name the first bad entry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import _EXPORTS
from .errors import ValidationError, _integers, _refused

__all__ = _EXPORTS["sequences"]

# parse_sequence converts each distinct token once when at most this share
# of its tokens are distinct, and every entry otherwise. Measured in process
# on shuffled i % k texts (CPython 3.11, 2-vCPU Xeon VM), against the
# per-entry pass alone: that pass, with the set that decides, cost
# 1.13-1.20x; converting per distinct token cost 0.55-0.72x at k/n = 0.1
# and 2.0-2.5x at k/n = 1, and met the fallback's cost at k/n = 0.28
# (n = 100), 0.34 (400), 0.39 (1,000) and 0.44 (10,000).
_COUNTED_SHARE = 1 / 3


def _check_degrees(values: Iterable[object]) -> None:
    """Raise ValidationError naming the position of the first entry that is
    not an integer or is negative."""
    for i, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, int):
            raise _refused("degree at position {} is not an integer: {}", i, x)
        if x < 0:
            raise _refused("negative degree at position {}: {}", i, x)


@dataclass(frozen=True)
class DegreeSequence:
    """An arranged sequence of non-negative vertex degrees.

    Instances are immutable and hashable. Build with :func:`make_sequence`
    when the input order is arbitrary; direct construction insists the
    entries already be arranged.
    """

    degrees: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        degs = tuple(self.degrees)
        object.__setattr__(self, "degrees", degs)
        _check_degrees(degs)
        if any(degs[i] < degs[i + 1] for i in range(len(degs) - 1)):
            raise ValidationError("degrees must be non-increasing; use make_sequence to sort")

    @classmethod
    def _trusted(cls, degrees: tuple[int, ...]) -> "DegreeSequence":
        """A sequence from a tuple already known to hold non-negative ints in
        non-increasing order, with no validation: for the constructors that
        have just checked their entries."""
        d = object.__new__(cls)
        object.__setattr__(d, "degrees", degrees)
        return d

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def degree_sum(self) -> int:
        return sum(self.degrees)

    @property
    def max_degree(self) -> int:
        return self.degrees[0] if self.degrees else 0

    @property
    def edge_count_if_graphic(self) -> int:
        """degree_sum / 2; defined only when the degree sum is even."""
        s = self.degree_sum
        if s % 2:
            raise _refused("degree sum {} is odd, edge count undefined", s)
        return s // 2

    def strip_zeros(self) -> tuple["DegreeSequence", bool]:
        """Drop trailing zero entries; return (stripped sequence, whether any were dropped)."""
        k = len(self.degrees)
        while k and self.degrees[k - 1] == 0:
            k -= 1
        if k == len(self.degrees):
            return self, False
        return DegreeSequence._trusted(self.degrees[:k]), True

    def to_text(self) -> str:
        return ",".join(str(x) for x in self.degrees)

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)

    def __getitem__(self, i):
        return self.degrees[i]

    def __str__(self) -> str:
        return f"({self.to_text()})"


def make_sequence(values: Iterable[int]) -> DegreeSequence:
    """Arrange arbitrary degree values into a :class:`DegreeSequence`.

    Raises ValidationError naming the offending input position on a
    negative or non-integer entry.
    """
    vals = list(values)
    _check_degrees(vals)
    return DegreeSequence._trusted(tuple(sorted(vals, reverse=True)))


def _counted(tokens: list[str]) -> DegreeSequence | None:
    """The arranged sequence of the comma-separated ``tokens``, each distinct
    token stripped and converted once; None when more than
    ``_COUNTED_SHARE`` of the tokens are distinct, or one is rejected or
    negative."""
    # a set costs a third of a Counter, so a text with many distinct tokens
    # pays little for the test; a rejected token sends the text to the
    # per-entry pass before any count
    distinct = set(tokens)
    if len(distinct) > _COUNTED_SHARE * len(tokens):
        return None
    try:
        values = _integers(list(map(str.strip, distinct)))
    except ValueError:
        return None
    if min(values) < 0:
        return None
    counts = Counter(tokens)
    degrees: list[int] = []
    # an unchanged set iterates in one order, so each value meets its token;
    # one value spelled two ways, as 3 and 03, sorts into two neighbouring runs
    for value, token in sorted(zip(values, distinct), reverse=True):
        degrees += [value] * counts[token]
    return DegreeSequence._trusted(tuple(degrees))


def parse_sequence(text: str) -> DegreeSequence:
    """Parse the comma-separated text format, e.g. ``"3, 2,2,1"``.

    The split tokens are counted. When at most ``_COUNTED_SHARE`` of them
    are distinct, as in most degree sequences, each distinct token is
    stripped, checked and converted once by :func:`_integers`, one value
    spelled several ways (``3``, ``03``, ``+3``) adds up its counts, and the
    arranged sequence is built from the distinct values, sorted, with no
    conversion or sort per entry. Otherwise, or when a distinct token is
    rejected or negative, one bulk pass of :func:`_integers` converts every
    stripped entry and the values are sorted. Only a rejected text is
    searched, by halving with the same rule, for the first entry that is
    not an integer, and an entry of ASCII digits is named as having too
    many digits for ``int``; otherwise a negative value names the first
    negative entry. Raises ValidationError in either case.
    """
    stripped = text.strip()
    if not stripped:
        return DegreeSequence()
    tokens = stripped.split(",")
    counted = _counted(tokens)
    if counted is not None:
        return counted
    entries = list(map(str.strip, tokens))
    try:
        values = _integers(entries)
    except ValueError:
        # entries[:lo] all pass and entries[lo:hi] holds a rejected one; each
        # probe checks half of that span, so the search costs about one more
        # bulk pass and O(log n) Python steps
        lo, hi = 0, len(entries)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _integers(entries[lo:mid])
                lo = mid
            except ValueError:
                hi = mid
        entry = entries[lo]
        digits = entry[1:] if entry[:1] in ("+", "-") else entry
        if digits.isascii() and digits.isdigit():
            # int refuses more digits than sys.get_int_max_str_digits() (Python 3.11, 3.10.7+)
            raise _refused("entry {} has too many digits ({}): {}", lo, len(digits), entry) from None
        raise _refused("entry {} is not an integer: {}", lo, entry) from None
    # every value is an int; the full check runs only to name a negative one
    if min(values) < 0:
        _check_degrees(values)
    values.sort(reverse=True)
    return DegreeSequence._trusted(tuple(values))
