"""JSON files in and out: ``load_json`` reads every JSON input, ``write_json``
writes every report and ``open_output`` opens every output, JSON or CSV.
Reports carry ``SCHEMA_VERSION``. A ``RowStream`` is a list of flat dicts
built as it is read, which ``write_json`` formats a chunk of rows at a time
instead of holding it whole, writing the dicts around it key by key; every
other value it writes is json.dumps's text."""
from __future__ import annotations

import contextlib
import json
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
    gives the rows as columns, at most ``size`` rows at a time, and
    ``rows()`` the same rows as tuples. json.dumps sees the stream as
    ``dicts()``, and ``write_json`` writes it from ``chunks`` with the same
    bytes."""

    keys: tuple[str, ...]

    @abstractmethod
    def chunks(self, size: int) -> Iterator[list[list]]:
        """The rows in order, in chunks of at most ``size`` rows, none empty:
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


def _holds_stream(obj) -> bool:
    """Whether ``obj`` is a row stream or a dict that holds one at any depth."""
    return isinstance(obj, RowStream) or \
        type(obj) is dict and any(map(_holds_stream, obj.values()))


def _json_pieces(obj, indent: int = 0) -> Iterator[Iterable[str]]:
    """The text of ``json.dumps(obj, **_JSON_OPTS)``, with its opening line
    at ``indent``, as pieces to join. A dict with str keys that holds a row
    stream is written key by key, and a stream with ``value_types`` by
    ``_rows_json``, as it is read. Any other value is one json.dumps text,
    its lines shifted by ``indent``: JSON text has no raw newline inside a
    string."""
    if isinstance(obj, RowStream) and (rows := _stream_columns(obj)) is not None:
        yield _rows_json(rows, indent)
    elif type(obj) is dict and all(type(k) is str for k in obj) and _holds_stream(obj):
        pad = "\n" + " " * (indent + 2)
        sep = "{"
        for key in sorted(obj):
            yield (sep + pad + encode_basestring_ascii(key) + ": ",)
            yield from _json_pieces(obj[key], indent + 2)
            sep = ","
        yield ("\n" + " " * indent + "}",)
    else:
        text = json.dumps(obj, **_JSON_OPTS)
        yield (text.replace("\n", "\n" + " " * indent) if indent else text,)


def write_json(data, out: str | None):
    """Write ``data`` as ``json.dumps(data, indent=2, sort_keys=True,
    allow_nan=False)`` plus a newline, byte for byte, to ``out`` or stdout
    (see ``open_output``). A ``RowStream`` in ``data`` is written as
    json.dumps writes its ``dicts()``.

    The pure-Python encoder that ``indent`` selects is slow on large arrays,
    so a row stream at the top level or held in dicts with str keys, with
    keys and with str, int, bool and finite float values (``value_types``),
    is formatted here from its ``chunks()``, column by column, and its text
    is never held whole. The dicts around it are written key by key; every
    other value, a stream in a list or tuple included, is one json.dumps
    text (see ``_json_pieces``). So whatever json.dumps rejects (NaN,
    infinities, unsupported types, cycles) raises the same exception type
    before ``out`` is opened.
    """
    try:
        pieces = list(_json_pieces(data))
    except RecursionError:  # a reference cycle or deep nesting: json.dumps decides
        pieces = [(json.dumps(data, **_JSON_OPTS),)]
    with open_output(out) as fh:
        fh.writelines(chain.from_iterable(pieces))
        fh.write("\n")
