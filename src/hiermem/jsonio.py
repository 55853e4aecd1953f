"""JSON files in and out: ``load_json`` reads every JSON input, ``write_json``
writes every report and ``open_output`` opens every output, JSON or CSV.
Reports carry ``SCHEMA_VERSION``. A ``RowStream`` is a list of flat dicts
built as it is read, which ``write_json`` formats a chunk of rows at a time
instead of holding it whole; everything else it writes is json.dumps's
text."""
from __future__ import annotations

import contextlib
import json
import re
import sys
from abc import ABC, abstractmethod
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator

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


_CHUNK_ROWS = 1024  # rows formatted per piece


class RowStream(ABC):
    """A list of flat dicts that is built row by row as it is read.
    ``keys``, distinct strs, name the values of each row; ``chunks(size)``
    gives the rows as columns, ``size`` rows at a time, and ``rows()`` the
    same rows as tuples. json.dumps sees the stream as ``dicts()``, and
    ``write_json`` writes it from ``chunks`` with the same bytes."""

    keys: tuple[str, ...]

    @abstractmethod
    def chunks(self, size: int) -> Iterator[list[list]]:
        """The rows in order, ``size`` at a time (fewer in the last chunk):
        per chunk, one list of values per key, in ``keys`` order."""

    @abstractmethod
    def value_types(self) -> tuple[type, ...] | None:
        """The exact type of each key's values, in ``keys`` order, when every
        value is a str, an int, a bool or a finite float of that type; else
        None."""

    def rows(self) -> Iterator[tuple]:
        """Each row's values, in ``keys`` order."""
        return chain.from_iterable(zip(*columns) for columns in self.chunks(_CHUNK_ROWS))

    def dicts(self) -> list[dict]:
        return [dict(zip(self.keys, row)) for row in self.rows()]


def _stream_dicts(obj):
    """json.dumps's ``default``: a row stream is the list of its dicts."""
    if isinstance(obj, RowStream):
        return obj.dicts()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_JSON_OPTS = {"indent": 2, "sort_keys": True, "allow_nan": False, "default": _stream_dicts}
_PROBE_ROWS = 64  # a str column is memoised when a value repeats among its first this many

# How json encodes each type a row stream's values may have (``value_types``).
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
}

# A row stream in the skeleton that json.dumps encodes; the index names the stream.
_ROWS_MARKER = "\x00hiermem-rows-%d\x00"
_ROWS_MARKER_JSON = re.compile(r'"\\u0000hiermem-rows-(\d+)\\u0000"')


def _stream_columns(stream: RowStream) -> tuple[list[str], list[Callable], Iterable] | None:
    """(sorted keys, their encoders, chunks of their values) of a row stream
    with keys whose values are strs, ints, bools and finite floats
    (``value_types``), else None."""
    keys, types = stream.keys, stream.value_types()
    if not keys or types is None:
        return None
    order = sorted(range(len(keys)), key=keys.__getitem__)
    chunks = ([columns[i] for i in order] for columns in stream.chunks(_CHUNK_ROWS))
    return [keys[i] for i in order], [_SCALAR_JSON[types[i]] for i in order], chunks


def _swap_rows(obj, found: list):
    """``obj`` with each row stream at the top level or held in a dict (see
    ``_stream_columns``) replaced by its marker string and recorded in
    ``found``; dicts that hold none are returned as they are. A stream in a
    list or tuple is left to json.dumps, which writes its dicts."""
    if isinstance(obj, RowStream):
        rows = _stream_columns(obj)
        if rows is None:  # json.dumps decides, on its dicts
            return obj
        found.append(rows)
        return _ROWS_MARKER % (len(found) - 1)
    if type(obj) is not dict:
        return obj
    swapped = None
    for key, value in obj.items():
        new = _swap_rows(value, found)
        if new is not value:
            if swapped is None:
                swapped = dict(obj)
            swapped[key] = new
    return obj if swapped is None else swapped


def _encoded(encoders: list[Callable], columns: list[list]) -> list[list[str]]:
    """One chunk's columns, each value encoded. A float that the chunk's
    first float column holds takes the text formatted there (a timeline's
    start times are mostly other rows' end times), unless that column holds
    a zero: -0.0 and 0.0 are one dict key but two texts. A str column whose
    first values repeat is encoded once per distinct value."""
    float_texts = None  # the first float column's value -> text
    encoded = []
    for encode, values in zip(encoders, columns):
        if encode is float.__repr__ and float_texts is None:
            texts = list(map(float.__repr__, values))
            float_texts = dict(zip(values, texts))
            if 0.0 in float_texts:
                float_texts = {}
        elif encode is float.__repr__:
            get = float_texts.get
            texts = [get(v) or float.__repr__(v) for v in values]
        elif encode is encode_basestring_ascii and \
                len(set(probe := values[:_PROBE_ROWS])) < len(probe):
            distinct = dict.fromkeys(values)
            get = dict(zip(distinct, map(encode_basestring_ascii, distinct))).__getitem__
            texts = list(map(get, values))
        else:
            texts = list(map(encode, values))
        encoded.append(texts)
    return encoded


def _rows_json(rows, indent: int) -> Iterator[str]:
    """A row stream as json.dumps formats it with its opening line at
    ``indent``, one piece per chunk of rows, given (sorted keys, their
    encoders, chunks of their values). A chunk is one join of the fixed
    text before each value with the values' texts, row after row."""
    keys, encoders, chunks = rows
    pad = " " * (indent + 2)
    # the text before each key's value; before the first, the row's opening
    # brace, which follows the brace that closes the row before it
    lead = [",\n" + pad + "  " + encode_basestring_ascii(k) + ": " for k in keys]
    head = pad + "{\n" + lead[0][2:]
    close = "\n" + pad + "}"
    lead[0] = close + ",\n" + head
    stride = 2 * len(keys)
    sep = "[\n"
    for columns in chunks:
        n = len(columns[0])
        pieces = [""] * (stride * n)
        for i, values in enumerate(_encoded(encoders, columns)):
            pieces[2 * i::stride] = [lead[i]] * n
            pieces[2 * i + 1::stride] = values
        pieces[0] = sep + head
        pieces.append(close)
        yield "".join(pieces)
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n" + " " * indent + "]"


def _json_pieces(data) -> list[Iterable[str]]:
    """The text of ``json.dumps(data, **_JSON_OPTS)`` as pieces to join. A
    row stream's piece is formatted as it is read; everything else is
    formatted here, so that whatever json.dumps rejects raises here."""
    found: list = []
    try:
        skeleton = _swap_rows(data, found)
    except RecursionError:  # a reference cycle or deep nesting: json.dumps decides
        found, skeleton = [], data
    text = json.dumps(skeleton, **_JSON_OPTS)
    if not found:
        return [(text,)]
    parts = _ROWS_MARKER_JSON.split(text)
    if sorted(map(int, parts[1::2])) != list(range(len(found))):
        # a string in the data holds a marker's text
        return [(json.dumps(data, **_JSON_OPTS),)]
    pieces = [(parts[0],)]
    for i in range(1, len(parts), 2):
        line = parts[i - 1][parts[i - 1].rfind("\n") + 1:]
        pieces.append(_rows_json(found[int(parts[i])], len(line) - len(line.lstrip(" "))))
        pieces.append((parts[i + 1],))
    return pieces


def write_json(data, out: str | None):
    """Write ``data`` as ``json.dumps(data, indent=2, sort_keys=True,
    allow_nan=False)`` plus a newline, byte for byte, to ``out`` or stdout
    (see ``open_output``). A ``RowStream`` in ``data`` is written as
    json.dumps writes its ``dicts()``.

    The pure-Python encoder that ``indent`` selects is slow on large arrays,
    so a row stream at the top level or held in a dict, with keys and with
    str, int, bool and finite float values (``value_types``), is formatted
    here from its ``chunks()``, column by column, and its text is never
    held whole. Each chunk of rows is one join of the fixed text around the
    values with the values' texts, and a chunk's repeated floats and strs
    are formatted once (see ``_encoded``). Everything else, the nesting,
    key order and indentation around the streams included, goes through
    json.dumps, so whatever it rejects (NaN, infinities, unsupported types,
    cycles) raises the same exception type before ``out`` is opened.
    """
    pieces = _json_pieces(data)
    with open_output(out) as fh:
        fh.writelines(chain.from_iterable(pieces))
        fh.write("\n")
