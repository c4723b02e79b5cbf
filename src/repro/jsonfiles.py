"""Run-directory files: append-only JSONL logs and atomic JSON objects.

``results.jsonl``, ``events.jsonl``, the service's ``jobs.jsonl``, and
``manifest.json``, ``metrics.json``, ``summary.json`` and the lake's
``lake.json`` are written and read here only (DESIGN.md, "Run-directory
files"):

* :class:`JsonlLog` appends one ``json.dumps(row, sort_keys=True)`` line
  per row and flushes it, so a kill loses at most the line being written
  (inside a :meth:`JsonlLog.batch`, the batch's rows flush together when
  it ends, so a kill loses at most that batch's rows).  Opening the file
  heals that loss: an unterminated final line that parses as a JSON
  object gets its newline, any other is truncated.
* :class:`JsonlRows` streams a log's rows back.  An unterminated final
  line is kept when it is a JSON object and skipped as a torn write when
  it is not.  A terminated line that is not a JSON object is corruption:
  strict readers (given ``what``) raise on it, counting readers skip it.
* :func:`write_json` replaces a JSON object file through a sibling temp
  file and :func:`os.replace`; :func:`read_json` refuses anything that is
  not a JSON object.

It imports nothing from the package but :mod:`repro.errors`, so every
layer can use it.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, TextIO, Union

from .errors import ConfigurationError

PathLike = Union[str, os.PathLike]

#: Bytes read per step while looking back for a log's last newline.
_TAIL_CHUNK = 1 << 16


def _json_object(data: bytes) -> Union[Dict[str, Any], str]:
    """``data`` parsed as a JSON object, or why it is not one."""
    try:
        row = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        return str(exc)
    if not isinstance(row, dict):
        return f"expected a JSON object, got {type(row).__name__}"
    return row


def _heal_tail(path: pathlib.Path) -> None:
    """End ``path`` on a line boundary, judging its tail as readers do."""
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return
    with handle:
        end = start = handle.seek(0, os.SEEK_END)
        while start > 0:
            step = min(_TAIL_CHUNK, start)
            handle.seek(start - step)
            newline = handle.read(step).rfind(b"\n")
            if newline >= 0:
                start += newline + 1 - step
                break
            start -= step
        if start == end:
            return
        handle.seek(start)
        if isinstance(_json_object(handle.read()), dict):
            handle.seek(end)
            handle.write(b"\n")
        else:
            handle.truncate(start)


class JsonlLog:
    """An append-only JSONL file of objects, one flushed line per row.

    The file is opened for append (after healing its tail) by :meth:`open`
    or, lazily, by the first :meth:`append`.  ``default`` is passed to
    :func:`json.dumps` for values it cannot serialize.
    """

    def __init__(
        self, path: PathLike, default: Optional[Callable[[Any], Any]] = None
    ) -> None:
        self.path = pathlib.Path(path)
        self._default = default
        self._handle: Optional[TextIO] = None
        self._batches = 0

    def open(self) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _heal_tail(self.path)
            self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, row: Mapping[str, Any]) -> None:
        if self._handle is None:
            self.open()
        self._handle.write(json.dumps(row, sort_keys=True, default=self._default) + "\n")
        if not self._batches:
            self._handle.flush()

    @contextlib.contextmanager
    def batch(self) -> Iterator["JsonlLog"]:
        """Append the rows of one block without flushing each: they flush
        once, together, when the block ends (also when it raises)."""
        self._batches += 1
        try:
            yield self
        finally:
            self._batches -= 1
            if not self._batches and self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JsonlRows:
    """The JSON-object rows of a JSONL log, streamed in file order.

    With ``what`` (what the rows are, for the message) the reader is
    strict: a terminated line that is not a JSON object raises
    :class:`~repro.errors.ConfigurationError` naming ``path:line``.
    Without it such lines are skipped and counted in :attr:`skipped`, as
    is an unterminated tail that is not a JSON object under either
    policy.  A missing file has no rows.
    """

    def __init__(self, path: PathLike, what: Optional[str] = None) -> None:
        self.path = pathlib.Path(path)
        self.what = what
        self.skipped = 0

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        with handle:
            for lineno, line in enumerate(handle, start=1):
                if line.isspace():
                    continue
                row = _json_object(line)
                if isinstance(row, dict):
                    yield row
                elif self.what is not None and line.endswith(b"\n"):
                    raise ConfigurationError(
                        f"{self.path}:{lineno}: corrupt {self.what} row: {row}"
                    )
                else:
                    self.skipped += 1


def write_json(path: PathLike, obj: Mapping[str, Any]) -> pathlib.Path:
    """Replace ``path`` with ``obj`` as indented, key-sorted JSON.

    The bytes land in a sibling ``.tmp`` file that :func:`os.replace`
    moves into place, so a crash leaves the old file or the new one,
    never a torn one.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(path.name + ".tmp")
    tmp_path.write_text(json.dumps(dict(obj), indent=2, sort_keys=True), encoding="utf-8")
    os.replace(tmp_path, path)
    return path


def read_json(path: PathLike) -> Dict[str, Any]:
    """The JSON object stored in ``path``.

    Raises :class:`~repro.errors.ConfigurationError` when the file cannot
    be read or does not hold a JSON object; callers add their own
    guidance to the message.
    """
    path = pathlib.Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror or exc}") from exc
    obj = _json_object(data)
    if isinstance(obj, str):
        raise ConfigurationError(f"{path} is corrupt ({obj})")
    return obj
