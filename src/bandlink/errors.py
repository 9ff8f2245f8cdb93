"""The package's errors and the checks its readers share.

Every error is a :class:`BandlinkError` and carries an ``exit_code``, so the
command line front end maps a failure onto its documented exit status
without a lookup table.  A subclass exists only when it carries data or an
exit code of its own: :class:`BudgetExceeded` and :class:`ConstructionStuck`
(exit 4).  Every other failure, from a malformed ``.cmap`` file to a witness
that does not percolate, is a plain :class:`BandlinkError` (exit 2) whose
message says what is wrong.  :func:`read_text` is how every reader opens
its file, :func:`parse_json` and :func:`json_typed` are the one decoder and
the one type check the JSON readers share, :func:`dump_json` encodes the
report and the provenance sidecar (the trace writer writes its fixed,
integer-only shape itself, with the same bytes), :func:`ascii_ints` reads
every integer written as text, and :func:`clip_repr` bounds every input
value an error message echoes.
"""

from __future__ import annotations


class BandlinkError(Exception):
    """Base class for all package errors: bad input or a failed check."""

    exit_code = 2


class BudgetExceeded(BandlinkError):
    """The exhaustive hull search spent its budget of face visits before
    finishing; ``examined`` holds the visits spent.  Subsets the search
    skips cost no visits."""

    exit_code = 4

    def __init__(self, message: str, examined: int):
        super().__init__(message)
        self.examined = examined


class ConstructionStuck(BandlinkError):
    """The constructive hull procedure could not complete.

    The failure is surfaced, never repaired: ``log`` holds the construction
    steps taken so far so the caller can inspect where progress stopped,
    and ``examined`` the closure engine's face visits they spent.
    """

    exit_code = 4

    def __init__(self, message: str, log: tuple[str, ...] = (), examined: int = 0):
        super().__init__(message)
        self.log = log
        self.examined = examined


def read_text(path) -> str:
    """The file at ``path`` as UTF-8 text; bytes that do not decode raise
    :class:`BandlinkError` as ``"<path>: <codec message>"``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise BandlinkError(f"{path}: {exc}") from exc


def parse_json(text: str, prefix: str):
    """The JSON document ``text``; malformed JSON, nesting too deep or an
    integer too long to convert raises ``"<prefix>: <message>"``."""
    import json  # loaded only by the commands that read JSON

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise BandlinkError(f"{prefix}: {exc}") from exc


def dump_json(doc) -> str:
    """``doc`` as indented JSON with sorted keys and a final newline."""
    import json  # loaded only by the commands that write JSON

    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


def ascii_ints(tokens: list[str]) -> list[int]:
    """``tokens`` as integers, each ASCII digits with an optional sign.

    ``int`` alone also reads other scripts' digits and ``_`` separators; one
    scan of all the tokens rules those out, not a test per token.  When that
    scan or ``int`` fails, each token is read on its own, so the first that
    is not an integer raises ValueError with that token as its argument.
    """
    joined = "".join(tokens)
    if joined.isascii() and "_" not in joined:
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    if len(tokens) > 1:
        return [ascii_ints([token])[0] for token in tokens]
    raise ValueError(joined)


def clip_repr(value) -> str:
    """``repr(value)``, cut to 80 characters and ``...`` when longer.

    Error messages echo input values with this, so a huge or deeply nested
    value still gives a short ``error:`` line.
    """
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."
