"""The checks every file reader makes of what it parsed.

Each check takes the reader's own error class and ``where``, the
position of the value (the file, then the reader's entry and key
names), and raises that error naming both, in one wording per problem.
The module imports nothing from the package, so that ``schema``, the
lowest reader, can use it.
"""

from __future__ import annotations

import json
from pathlib import Path

_KINDS = {str: "a string", int: "an integer", (int, float): "a number",
          list: "a list", dict: "an object"}


def _shown(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def text_lines(error, path):
    """The lines of ``path``, each with its line end, decoded as UTF-8 one
    at a time; a byte that is not UTF-8 text names its offset in the file."""
    offset = 0
    with Path(path).open("rb") as fh:
        for raw in fh:
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError as err:
                raise error(f"{path}: not UTF-8 text at byte {offset + err.start}") from err
            offset += len(raw)


def read_json(error, path):
    """The parsed JSON of ``path``; a syntax error names the line."""
    try:
        return json.loads("".join(text_lines(error, path)))
    except json.JSONDecodeError as err:
        raise error(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err


def of_type(error, where, value, kind):
    """``value`` if it is a ``kind``, a key of ``_KINDS``; a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise error(f"{where} is {_shown(value)}, expected {_KINDS[kind]}")
    return value


def keyed(error, where, value, keys) -> dict:
    """``value`` as an object that carries every one of ``keys``."""
    of_type(error, where, value, dict)
    for key in keys:
        if key not in value:
            raise error(f"{where}: missing key {key!r}")
    return value


def field(error, where, value, key: str, kind):
    """``value[key]``, where ``value`` must be an object and the entry a ``kind``."""
    return of_type(error, f"{where}: {key}", keyed(error, where, value, (key,))[key], kind)


def objects(error, where, value, keys) -> list[dict]:
    """``value`` as a list of objects carrying ``keys``, at ``{where}: entry {i}``."""
    for i, entry in enumerate(of_type(error, where, value, list)):
        keyed(error, f"{where}: entry {i}", entry, keys)
    return value


def strings(error, where, value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise error(f"{where} is {_shown(value)}, expected a list of strings")
    return value


def pairs(error, where, value) -> list[list]:
    """``value`` as a list of two-element lists, at ``{where} pair {j}``."""
    for j, pair in enumerate(of_type(error, where, value, list)):
        if not isinstance(pair, list) or len(pair) != 2:
            raise error(f"{where} pair {j} is {_shown(pair)}, expected two values")
    return value


def index(error, where, value, size: int) -> int:
    """``value`` if it is an integer in ``range(size)``."""
    if type(value) is not int or not 0 <= value < size:
        raise error(f"{where} {_shown(value)} is not in range({size})")
    return value


def digits(error, where, text: str) -> int:
    """The non-negative integer that ``text`` writes in ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise error(f"{where} {_shown(text)} is not a non-negative integer")
    return int(text)
