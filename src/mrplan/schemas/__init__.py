"""The scene and plan document schemas, the checker that applies them, and
the one reader of both documents.

``scene.schema.json`` and ``plan.schema.json`` are the one definition of the
two document formats. ``read`` and ``load`` are the one way to read them: a
file that is not UTF-8, text that is not finite JSON and a document that
breaks its schema are each refused here, with the document's kind in the
message. ``Schema`` interprets the subset of JSON Schema
(draft 2020-12) that they use:

- ``type`` (``object``, ``array``, ``string``, ``number``, ``integer``; a
  boolean is neither a number nor an integer, and a float with an integral
  value is an integer), ``required``, ``properties``,
  ``additionalProperties``;
- ``items``, ``prefixItems``, ``minItems``, ``maxItems``;
- ``minimum``, ``exclusiveMinimum``, ``maximum``, ``const``, ``enum``,
  ``oneOf``;
- ``$ref`` to a JSON pointer inside the same schema;
- the annotations ``$schema``, ``title`` and ``$defs``.

A schema that uses any other keyword is refused when it is loaded, so an
edit to a schema file cannot be silently ignored.
"""
from __future__ import annotations

import functools
import json
import math
import os

_ANNOTATIONS = frozenset({"$schema", "title", "$defs"})


class DocumentError(ValueError):
    """A document does not match its schema.

    ``path`` lists the keys and indices from the document root to the
    offending value.
    """

    def __init__(self, path: tuple, message: str):
        super().__init__(path, message)
        self.path = path
        self.message = message

    def __str__(self) -> str:
        where = "/".join(str(p) for p in self.path) or "<root>"
        return f"schema error at {where}: {self.message}"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _equal(a, b) -> bool:
    """JSON equality at the top level: booleans are not numbers."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


class Schema:
    """One schema document, checked for supported keywords on creation."""

    def __init__(self, doc: dict):
        self.doc = doc
        self._refs: dict[str, dict] = {}
        self._walk(doc, "#")

    def _walk(self, s, where: str) -> None:
        if not isinstance(s, dict):
            raise ValueError(f"schema at {where} is not an object")
        for key, arg in s.items():
            if key not in _KEYWORDS and key not in _ANNOTATIONS:
                raise ValueError(f"unsupported schema keyword {key!r} at {where}")
            here = f"{where}/{key}"
            if key in ("properties", "$defs"):
                for name, sub in arg.items():
                    self._walk(sub, f"{here}/{name}")
            elif key in ("prefixItems", "oneOf"):
                for i, sub in enumerate(arg):
                    self._walk(sub, f"{here}/{i}")
            elif key == "items" or (key == "additionalProperties"
                                    and not isinstance(arg, bool)):
                self._walk(arg, here)
            elif key == "type" and not (isinstance(arg, str) and arg in _TYPES):
                raise ValueError(f"unsupported type {arg!r} at {where}")
            elif key == "$ref":
                if not arg.startswith("#/"):
                    raise ValueError(f"unsupported $ref {arg!r} at {where}")
                target = self.doc
                for part in arg[2:].split("/"):
                    target = target[part]
                self._refs[arg] = target

    def check(self, doc) -> None:
        """Raise ``DocumentError`` at the first place ``doc`` breaks the schema."""
        self._check(doc, self.doc, ())

    def _check(self, v, s: dict, path: tuple) -> None:
        for key, arg in s.items():
            if key not in _ANNOTATIONS:
                _KEYWORDS[key](self, v, arg, s, path)

    # -- keywords: each raises DocumentError or returns ---------------------

    def _type(self, v, t, s, path):
        if not _TYPES[t](v):
            raise DocumentError(path, f"{v!r} is not of type {t!r}")

    def _required(self, v, names, s, path):
        if isinstance(v, dict):
            for name in names:
                if name not in v:
                    raise DocumentError(path, f"{name!r} is a required property")

    def _properties(self, v, props, s, path):
        if isinstance(v, dict):
            for name, sub in props.items():
                if name in v:
                    self._check(v[name], sub, path + (name,))

    def _additional(self, v, extra, s, path):
        if not isinstance(v, dict):
            return
        known = s.get("properties", {})
        names = [k for k in v if k not in known]
        if extra is False and names:
            listed = ", ".join(repr(k) for k in sorted(names))
            verb = "was" if len(names) == 1 else "were"
            raise DocumentError(
                path, f"Additional properties are not allowed ({listed} {verb} unexpected)")
        if isinstance(extra, dict):
            for name in names:
                self._check(v[name], extra, path + (name,))

    def _prefix_items(self, v, subs, s, path):
        if isinstance(v, list):
            for i, (item, sub) in enumerate(zip(v, subs)):
                self._check(item, sub, path + (i,))

    def _items(self, v, sub, s, path):
        if isinstance(v, list):
            start = len(s.get("prefixItems", ()))
            for i in range(start, len(v)):
                self._check(v[i], sub, path + (i,))

    def _min_items(self, v, n, s, path):
        if isinstance(v, list) and len(v) < n:
            raise DocumentError(path, f"{v!r} is too short")

    def _max_items(self, v, n, s, path):
        if isinstance(v, list) and len(v) > n:
            raise DocumentError(path, f"{v!r} is too long")

    def _minimum(self, v, m, s, path):
        if _is_number(v) and v < m:
            raise DocumentError(path, f"{v!r} is less than the minimum of {m!r}")

    def _exclusive_minimum(self, v, m, s, path):
        if _is_number(v) and v <= m:
            raise DocumentError(
                path, f"{v!r} is less than or equal to the minimum of {m!r}")

    def _maximum(self, v, m, s, path):
        if _is_number(v) and v > m:
            raise DocumentError(path, f"{v!r} is greater than the maximum of {m!r}")

    def _const(self, v, c, s, path):
        if not _equal(v, c):
            raise DocumentError(path, f"{c!r} was expected")

    def _enum(self, v, values, s, path):
        if not any(_equal(v, c) for c in values):
            raise DocumentError(path, f"{v!r} is not one of {values!r}")

    def _one_of(self, v, subs, s, path):
        failures = []
        for sub in subs:
            try:
                self._check(v, sub, path)
            except DocumentError as e:
                failures.append(e)
        passed = len(subs) - len(failures)
        if passed > 1:
            raise DocumentError(path, f"{v!r} is valid under more than one of the given schemas")
        if passed == 0:
            # a branch that failed deeper than every other one is the branch
            # the document meant: report its error
            failures.sort(key=lambda e: -len(e.path))
            if len(failures) == 1 or len(failures[0].path) > len(failures[1].path):
                raise failures[0]
            raise DocumentError(path, f"{v!r} is not valid under any of the given schemas")

    def _ref(self, v, ref, s, path):
        self._check(v, self._refs[ref], path)


_KEYWORDS = {
    "type": Schema._type,
    "required": Schema._required,
    "properties": Schema._properties,
    "additionalProperties": Schema._additional,
    "prefixItems": Schema._prefix_items,
    "items": Schema._items,
    "minItems": Schema._min_items,
    "maxItems": Schema._max_items,
    "minimum": Schema._minimum,
    "exclusiveMinimum": Schema._exclusive_minimum,
    "maximum": Schema._maximum,
    "const": Schema._const,
    "enum": Schema._enum,
    "oneOf": Schema._one_of,
    "$ref": Schema._ref,
}


def parse(text: str):
    """The JSON value of a scene or plan document.

    Python's ``json`` reads ``NaN``, ``Infinity`` and ``-Infinity``, and reads
    a literal beyond the float range, such as ``1e400``, as infinity. No
    document quantity may be non-finite: ``minimum`` and ``exclusiveMinimum``
    are false on NaN, and a NaN volume collides with nothing. Such a number
    raises ``ValueError``, and so does an object that repeats a key, which
    ``json`` would read as its last value; malformed text raises
    ``json.JSONDecodeError``, and arrays and objects nested deeper than the
    interpreter's recursion limit raise ``RecursionError``.
    """
    return json.loads(text, parse_float=_finite_float, parse_int=_finite_int,
                      parse_constant=_finite_float, object_pairs_hook=_unique_keys)


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _finite_float(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"{token} is not a finite number")
    return x


def _finite_int(token: str) -> int:
    _finite_float(token)  # an integer beyond the float range reads as inf
    return int(token)


def load(kind: str, text: str, error: type[ValueError]):
    """The JSON value of ``text``, a ``kind`` document that its schema accepts.

    Raises ``error``, on one line, for text that ``parse`` refuses or a
    value the schema refuses.
    """
    try:
        doc = parse(text)
    except json.JSONDecodeError as e:
        raise error(f"{kind} parse error at line {e.lineno}: {e.msg}") from e
    except ValueError as e:
        raise error(f"{kind} parse error: {e}") from e
    except RecursionError as e:
        raise error(f"{kind} parse error: arrays and objects nest too deeply") from e
    try:
        schema(kind).check(doc)
    except DocumentError as e:
        raise error(f"{kind} {e}") from e
    return doc


def read(kind: str, path, error: type[ValueError]) -> str:
    """The text of the ``kind`` document at ``path``; ``error`` if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise error(f"{kind} parse error: {path} is not UTF-8: {e.reason}") from e


@functools.cache
def schema(kind: str) -> Schema:
    """The shipped ``<kind>.schema.json`` (``scene`` or ``plan``), read once."""
    with open(os.path.join(os.path.dirname(__file__), f"{kind}.schema.json"), "rb") as f:
        return Schema(json.load(f))     # json detects the UTF-8 of the bytes
