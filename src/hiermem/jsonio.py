"""JSON files in and out: ``load_json`` reads every JSON input, ``write_json``
writes every report and ``open_output`` opens every output, JSON or CSV.
Reports carry ``SCHEMA_VERSION``."""
from __future__ import annotations

import contextlib
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable

from .errors import ConfigError

SCHEMA_VERSION = "1"


def load_json(path, what: str = ""):
    """The JSON value in file ``path``; ConfigError if there is no such file
    or it is not JSON. ``what`` names the file in the message."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"no such file: {path}")
    try:
        return json.loads(p.read_bytes())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"bad JSON in {what}{path}: {exc}") from None


@contextlib.contextmanager
def open_output(out: str | None):
    """The text stream an output goes to: stdout when ``out`` is None, empty
    or "-", else the file ``out`` opened for writing with newline="" (so a
    CSV writer's line ends pass unchanged); ConfigError if it cannot be opened."""
    if not out or out == "-":
        yield sys.stdout
        return
    try:
        fh = open(out, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from None
    with fh:
        yield fh


_JSON_OPTS = {"indent": 2, "sort_keys": True, "allow_nan": False}

# How json encodes each scalar type a rows-path value may have. Exact types
# only: a subclass (an IntEnum, say) keeps its list on the json.dumps path.
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _scalar_json(value) -> str:
    return _SCALAR_JSON[type(value)](value)


# A rows list in the skeleton that json.dumps encodes; the index names the list.
_ROWS_MARKER = "\x00hiermem-rows-%d\x00"
_ROWS_MARKER_JSON = re.compile(r'"\\u0000hiermem-rows-(\d+)\\u0000"')


def _row_columns(rows) -> tuple[list[str], list[tuple[list, Callable]]] | None:
    """(sorted keys, (values, their encoder) per key) when ``rows`` is a
    non-empty list of dicts that share one non-empty set of str keys and hold
    only finite scalars, else None."""
    first = rows[0] if type(rows) is list and rows else None
    if type(first) is not dict or not first or \
            not all(type(k) is str for k in first):
        return None
    keys = sorted(first)
    if set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(keys)}:
        return None
    columns = []
    for key in keys:
        try:
            values = list(map(itemgetter(key), rows))
        except KeyError:  # a row with as many keys but other ones
            return None
        types = set(map(type, values))
        if not types <= _SCALAR_JSON.keys():
            return None
        if float in types:
            floats = values if len(types) == 1 else [v for v in values if type(v) is float]
            if not all(map(math.isfinite, floats)):  # json.dumps raises for it
                return None
        columns.append((values, _SCALAR_JSON[types.pop()] if len(types) == 1 else _scalar_json))
    return keys, columns


def _swap_rows(obj, found: list):
    """``obj`` with each rows list (see ``_row_columns``) replaced by its
    marker string and recorded in ``found``; containers that hold none are
    returned as they are."""
    if type(obj) is dict:
        items = obj.items()
    elif type(obj) is list or type(obj) is tuple:
        rows = _row_columns(obj)
        if rows is not None:
            found.append(rows)
            return _ROWS_MARKER % (len(found) - 1)
        items = enumerate(obj)
    else:
        return obj
    swapped = None
    for key, value in items:
        new = _swap_rows(value, found)
        if new is not value:
            if swapped is None:
                swapped = dict(obj) if type(obj) is dict else list(obj)
            swapped[key] = new
    return obj if swapped is None else swapped


def _rows_json(rows, indent: int) -> str:
    """A rows list as json.dumps formats it with its opening line at ``indent``."""
    keys, columns = rows
    pad = " " * (indent + 2)
    template = pad + "{\n" + ",\n".join(
        pad + "  " + encode_basestring_ascii(k).replace("%", "%%") + ": %s"
        for k in keys) + "\n" + pad + "}"
    encoded = [map(encode, values) for values, encode in columns]
    return "[\n" + ",\n".join(map(template.__mod__, zip(*encoded))) + "\n" + \
        " " * indent + "]"


def _json_pieces(data) -> list[str]:
    """The text of ``json.dumps(data, **_JSON_OPTS)`` as pieces to join."""
    found: list = []
    try:
        skeleton = _swap_rows(data, found)
    except RecursionError:  # a reference cycle or deep nesting: json.dumps decides
        found, skeleton = [], data
    text = json.dumps(skeleton, **_JSON_OPTS)
    if not found:
        return [text]
    parts = _ROWS_MARKER_JSON.split(text)
    if sorted(map(int, parts[1::2])) != list(range(len(found))):
        # a string in the data holds a marker's text
        return [json.dumps(data, **_JSON_OPTS)]
    pieces = [parts[0]]
    for i in range(1, len(parts), 2):
        line = pieces[-1][pieces[-1].rfind("\n") + 1:]
        pieces.append(_rows_json(found[int(parts[i])], len(line) - len(line.lstrip(" "))))
        pieces.append(parts[i + 1])
    return pieces


def write_json(data, out: str | None):
    """Write ``data`` as ``json.dumps(data, indent=2, sort_keys=True,
    allow_nan=False)`` plus a newline, byte for byte, to ``out`` or stdout
    (see ``open_output``).

    The pure-Python encoder that ``indent`` selects is slow on large arrays,
    so a rows list is formatted here, one %-template per row: a non-empty
    list of dicts that share one non-empty set of str keys and hold only
    str, int, finite float, bool or None values (exact types). Every other
    value, and the nesting, key order and indentation around the rows, goes
    through json.dumps. Whatever json.dumps rejects (NaN, infinities,
    unsupported types, cycles) raises the same exception type before ``out``
    is opened.
    """
    pieces = _json_pieces(data)
    pieces.append("\n")
    with open_output(out) as fh:
        fh.writelines(pieces)
