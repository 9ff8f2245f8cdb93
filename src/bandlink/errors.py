"""Exception taxonomy shared by the whole package.

Every error carries an ``exit_code`` so the command line front end can map
failures onto its documented exit statuses without a big lookup table.
:func:`json_typed` is the one type check the JSON readers share, and
:func:`clip_repr` bounds every input value an error message echoes.
"""

from __future__ import annotations


class BandlinkError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class MalformedPermutation(BandlinkError):
    """A dart permutation is not a bijection on 1..2E, or alpha is not a
    fixed-point-free involution."""


class GenusMismatch(BandlinkError):
    """Declared genus disagrees with the genus derived from Euler's formula."""


class BadValence(BandlinkError):
    """A vertex has a valence the operation cannot accept."""


class ZeroSubdivision(BandlinkError):
    """An edge joining two 4-valent vertices received no subdivision points."""


class UnknownVertex(BandlinkError):
    """A vertex id outside 1..V was supplied."""


class CmapFormatError(BandlinkError):
    """A .cmap file is malformed; the message carries a line number."""


class BandSpecError(BandlinkError):
    """A band specification document is malformed or inconsistent."""


class ProvenanceError(BandlinkError):
    """A provenance sidecar does not match the diagram it claims to describe."""


class NonPlanar(BandlinkError):
    """Rendering was asked for a map of positive genus."""


class UnverifiedWitness(BandlinkError):
    """A bounds report was requested for a witness that does not percolate."""


class BudgetExceeded(BandlinkError):
    """The exhaustive hull search spent its budget of face visits before
    finishing; ``examined`` holds the visits spent.  Subsets the search
    skips cost no visits."""

    exit_code = 4

    def __init__(self, message: str, examined: int, best_known: int | None = None):
        super().__init__(message)
        self.examined = examined
        self.best_known = best_known


class ConstructionStuck(BandlinkError):
    """The constructive hull procedure could not complete.

    The failure is surfaced, never repaired: ``log`` holds the construction
    steps taken so far so the caller can inspect where progress stopped.
    """

    exit_code = 4

    def __init__(self, message: str, log: tuple[str, ...] = ()):
        super().__init__(message)
        self.log = log


def json_typed(value, kind: type, field: str):
    """``value`` if its JSON type is exactly ``kind`` (``int`` or ``list``).

    The JSON readers share this check.  A bool, float or string where an
    integer belongs, or anything but a list where a list belongs, raises
    TypeError, which each reader reports as its own error.
    """
    if type(value) is not kind:
        noun = "an integer" if kind is int else "a list"
        raise TypeError(f"{field} must be {noun}, got {clip_repr(value)}")
    return value


def clip_repr(value) -> str:
    """``repr(value)``, cut to 80 characters and ``...`` when longer.

    Error messages echo input values with this, so a huge or deeply nested
    value still gives a short ``error:`` line.
    """
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."
