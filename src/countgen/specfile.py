"""The line format of every spec file: whitespace-separated tokens, ``#``
comments to the end of the line, blank lines skipped; errors name the line."""

from .exceptions import FormatError


def spec_lines(text: str):
    """Yield ``(line number, tokens)`` for each line that holds a token.

    Lines end at a newline only.  A form feed or any other line break
    inside a line separates tokens like a space does, and so does the
    carriage return of a CRLF ending."""
    for number, raw in enumerate(text.split("\n"), 1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield number, tokens


def integer(number: int, token: str) -> int:
    """``token`` as an int, or a FormatError that names line ``number``."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"line {number}: {token!r} is not an integer") from None


def read_directives(text: str, arity: dict, other=None) -> dict:
    """``{keyword: [(line number, arguments), ...]}``; ``arity[key]`` is the
    argument count of a ``key`` line, or None for a list.  Other lines go to
    ``other(number, tokens)``, or are refused."""
    lines = {key: [] for key in arity}
    for number, tokens in spec_lines(text):
        key, args = tokens[0], tokens[1:]
        if key not in arity:
            if other is None:
                raise FormatError(f"line {number}: unknown directive {key!r}")
            other(number, tokens)
        elif arity[key] not in (None, len(args)):
            count = f"{arity[key]} argument" + "s" * (arity[key] != 1)
            raise FormatError(f"line {number}: {key} takes {count}, not {len(args)}")
        else:
            lines[key].append((number, args))
    return lines


def single(lines: dict, key: str) -> tuple:
    """The ``(line number, arguments)`` of a directive that takes one line."""
    if not lines[key]:
        raise FormatError(f"missing {key} line")
    if len(lines[key]) > 1:
        raise FormatError(f"line {lines[key][1][0]}: a second {key} line")
    return lines[key][0]


def integer_lines(text: str, what: str) -> list:
    """The ``(line number, integer row)`` pairs of a headed file, its first
    row the header."""
    rows = [(number, [integer(number, tok) for tok in tokens]) for number, tokens in spec_lines(text)]
    if not rows:
        raise FormatError(f"empty {what} file")
    return rows
