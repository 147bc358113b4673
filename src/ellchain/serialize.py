"""JSON encoding of series, redistributions, certificates and verdicts.

Every top-level payload carries ``"schema": 1`` and a ``"type"`` tag; the
full field-by-field layout is documented in ``docs/schema.md``.  Encoding is
deterministic (sorted keys, no timestamps), and ``loads``/``from_payload``
invert ``dumps``/``to_payload`` for every payload type.

The dataclasses state the layout once: an object is written as its ``init``
fields by name, tuples as lists, plus the tags and read-only properties in
the tables below.  Output has one writer: :func:`to_text` (and ``dumps``)
writes an object straight to the ``indent=2, sort_keys=True`` text, with no
payload tree in between.  Each value type gets one writer function per
depth (:func:`_writer`), generated on first use: it appends its sorted key
texts and writes each field inline by the field's runtime type, so
:func:`_write` is left the scalars, dicts, lists and degree-0 classes.  A
certificate in the ``kept`` table passed to :func:`to_text` (a run's, see
:class:`ellchain.pipelines.Run`) is written once per depth and its text
reused.  The dict form stays for readers: :func:`to_payload` builds it, and
its ``json.dumps(payload, sort_keys=True, indent=2)`` is the same text.
Decoding follows the same fields' type hints; a missing key, a wrong type
or a non-object raises :class:`SchemaError` naming the field path.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from typing import Any, Callable, NamedTuple

from ellchain.chain import LimitLinearSeries, Redistribution, ValidationReport
from ellchain.elliptic import Degree0Class, IndecomposableSlot, LineBundleClass
from ellchain.independence import Audit, Certificate, DistributionInfo, OracleBlock, Verdict

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    pass


#: top-level payload types, written with ``schema`` and ``type`` keys
TYPES = {
    LimitLinearSeries: "series",
    ValidationReport: "validation",
    Redistribution: "redistribution",
    Certificate: "certificate",
    Verdict: "verdict",
}
#: read-only properties written after the fields and ignored on input
DERIVED = {
    ValidationReport: ("ok",),
    Redistribution: ("empty_components",),
    Audit: ("ok",),
    DistributionInfo: ("matches_quoted",),
    OracleBlock: ("agreed",),
}
#: the ``kind`` tag that tells the two slot types apart
KINDS = {LineBundleClass: "line", IndecomposableSlot: "atom"}

_BY_TYPE = {tag: cls for cls, tag in TYPES.items()}
_SCALARS = frozenset({int, str, bool, type(None)})
_UNIONS = (typing.Union, types.UnionType)
_JSON_NAMES = {dict: "an object", list: "a list", type(None): "null"}
_CONSTANTS = {True: "true", False: "false", None: "null"}
_quote = json.encoder.encode_basestring_ascii


class _Field(NamedTuple):
    name: str
    hint: Any
    scalar: bool  # written as is, without walking the value


def _is_scalar(hint: Any) -> bool:
    if typing.get_origin(hint) in _UNIONS:
        return all(_is_scalar(h) for h in typing.get_args(hint))
    return hint in _SCALARS


@functools.cache
def _layout(cls: type) -> tuple[dict, tuple[_Field, ...], tuple[str, ...]]:
    """The tags a payload of ``cls`` starts with, its fields, its derived keys."""
    if not dataclasses.is_dataclass(cls):
        raise SchemaError(f"cannot serialize {cls.__name__}")
    hints = typing.get_type_hints(cls)
    fields = tuple(
        _Field(f.name, hints[f.name], _is_scalar(hints[f.name]))
        for f in dataclasses.fields(cls)
        if f.init
    )
    if cls in TYPES:
        head = {"schema": SCHEMA_VERSION, "type": TYPES[cls]}
    else:
        head = {"kind": KINDS[cls]} if cls in KINDS else {}
    return head, fields, DERIVED.get(cls, ())


def _symbol_keyed(value: Degree0Class) -> dict:
    """A degree-0 class as symbol-keyed dicts, not pair lists."""
    return {
        "pq": value.pq,
        "generic": dict(value.generic),
        "torsion": {name: [order, res] for name, order, res in value.torsion},
    }


def _plain(value: Any) -> Any:
    cls = type(value)
    if cls in _SCALARS:
        return value
    if cls is tuple or cls is list:
        return [v if type(v) in _SCALARS else _plain(v) for v in value]
    if cls is dict:
        return {k: _plain(v) for k, v in value.items()}
    if cls is Degree0Class:
        return _plain(_symbol_keyed(value))
    head, fields, derived = _layout(cls)
    out = dict(head)
    for f in fields:
        v = getattr(value, f.name)
        if not f.scalar:
            v = _plain(v)
        out[f.name] = v
    for name in derived:
        out[name] = _plain(getattr(value, name))
    return out


def to_payload(obj: Any) -> dict:
    """Encode a supported object as a schema-tagged JSON payload."""
    if type(obj) not in TYPES:
        raise SchemaError(f"cannot serialize {type(obj).__name__}")
    return _plain(obj)


def to_text(obj: Any, pad: str = "", kept: dict[int, dict[str, str]] | None = None) -> str:
    """``json.dumps(to_payload(obj), sort_keys=True, indent=2)`` with ``pad``
    after each newline, written from ``obj`` itself.

    ``obj`` is of a type in :data:`TYPES`, or a dict of such values and JSON
    scalars (the ``canonical`` payload).  Objects are written through their
    type's writer (:func:`_writer`) and tuples as lists, so no payload tree
    is built.  ``kept`` maps the ``id`` of each certificate whose text is
    reused to its texts by depth (``Run.kept``), filled as they are written.
    Any other type raises :class:`SchemaError`.
    """
    if type(obj) not in TYPES and type(obj) is not dict:
        raise SchemaError(f"cannot serialize {type(obj).__name__}")
    parts: list[str] = []
    _write(obj, pad, parts, {} if kept is None else kept)
    return "".join(parts)


def dumps(obj: Any) -> str:
    return to_text(obj) + "\n"


@functools.cache
def _writer(cls: type, pad: str) -> Callable[[Any, list[str], dict], None]:
    """The writer of a ``cls`` value at depth ``pad``, generated on first use.

    It appends the text of each key in sorted order (the brace or comma, the
    new line and indent, the quoted key; a head tag's value too) and writes
    each field inline by its runtime type, as :func:`_write` does: an int by
    ``repr``, a bool or None as its constant, a str quoted, anything else
    through :func:`_write`.  A field's hinted type is tested first.  The
    writer of :class:`Certificate` reuses the texts of the ``kept`` table
    (:func:`_keeping`).
    """
    head, fields, derived = _layout(cls)  # a type that is not a dataclass raises SchemaError
    hints = {f.name: f.hint for f in fields if f.scalar}
    names = {tag: None for tag in head}
    names.update((name, name) for name in (*(f.name for f in fields), *derived))
    inner = pad + "  "
    text, body = "", []
    for i, key in enumerate(sorted(names)):
        text += ("{\n" if i == 0 else ",\n") + inner + _quote(key) + ": "
        name = names[key]
        if name is None:  # a head tag: the schema int or a str
            tag = head[key]
            text += _quote(tag) if type(tag) is str else repr(tag)
            continue
        body.append(f"v = value.{name}")
        rest = [f"out.append({text!r})", f"_write(v, {inner!r}, out, kept)"]
        if name in hints:
            hinted = typing.get_args(hints[name]) or (hints[name],)
            for n, t in enumerate(sorted(_BRANCHES, key=lambda t: t not in hinted)):
                test, encoded = _BRANCHES[t]
                body.append(f"{'elif' if n else 'if'} {test}: out.append({text!r} + {encoded})")
            body.append("else:")
            rest = ["    " + line for line in rest]
        body += rest
        text = ""
    close = text + "\n" + pad + "}" if names else "{}"
    body.append(f"out.append({close!r})")
    # _write, _quote and _CONSTANTS are closure cells of the writer, as in elliptic.value
    src = (
        "def make(_write, _quote, _CONSTANTS):\n"
        "    def write(value, out, kept):\n"
        + "".join(f"        {line}\n" for line in body)
        + "    return write\n"
    )
    namespace: dict[str, Any] = {}
    exec(src, {}, namespace)
    write = namespace["make"](_write, _quote, _CONSTANTS)
    write.__qualname__ = f"_writer.<{cls.__name__}>"
    return _keeping(write, pad) if cls is Certificate else write


#: each scalar type's runtime test and text, in the writer's source
_BRANCHES = {
    int: ("type(v) is int", "repr(v)"),
    str: ("type(v) is str", "_quote(v)"),
    bool: ("v is True or v is False", "_CONSTANTS[v]"),
    type(None): ("v is None", "'null'"),
}


def _keeping(fresh: Callable[[Any, list[str], dict], None], pad: str) -> Callable:
    """The certificate writer at ``pad``: ``fresh``, except that a
    certificate named in ``kept`` is written once at this depth and its text
    kept there for the next write.  Every other certificate is written
    fresh and kept nowhere."""
    def write(cert: Certificate, out: list[str], kept: dict[int, dict[str, str]]) -> None:
        texts = kept.get(id(cert))
        if texts is None:
            return fresh(cert, out, kept)
        if pad not in texts:
            parts: list[str] = []
            fresh(cert, parts, kept)
            texts[pad] = "".join(parts)
        out.append(texts[pad])
    return write


def _write(value: Any, pad: str, out: list[str], kept: dict[int, dict[str, str]]) -> None:
    """Append the text of ``value``'s :func:`to_payload` form at depth
    ``pad`` to ``out``, reusing the certificate texts in ``kept``."""
    cls = type(value)
    if cls is str:
        out.append(_quote(value))
    elif cls is int:
        out.append(repr(value))
    elif cls is bool or value is None:
        out.append(_CONSTANTS[value])
    elif cls is dict or cls is list or cls is tuple:
        if not value:
            out.append("{}" if cls is dict else "[]")
            return
        inner = pad + "  "
        comma = ",\n" + inner
        if cls is dict:
            sep = "{\n" + inner
            for key in sorted(value):  # a key that is not a str fails to sort or quote
                out.append(sep + _quote(key) + ": ")
                _write(value[key], inner, out, kept)
                sep = comma
            out.append("\n" + pad + "}")
        else:
            sep = "[\n" + inner
            for item in value:
                t = type(item)
                if t is int:
                    out.append(sep + repr(item))
                elif t in _PLAIN:
                    out.append(sep)
                    _write(item, inner, out, kept)
                else:  # a value type goes straight to its writer
                    out.append(sep)
                    _writer(t, inner)(item, out, kept)
                sep = comma
            out.append("\n" + pad + "]")
    elif cls is Degree0Class:
        _write(_symbol_keyed(value), pad, out, kept)
    else:
        _writer(cls, pad)(value, out, kept)


#: the types :func:`_write` itself dispatches on
_PLAIN = frozenset({str, int, bool, type(None), dict, list, tuple, Degree0Class})


def _got(value: Any) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


def _object(value: Any, path: str) -> dict:
    if type(value) is not dict:
        raise SchemaError(f"{path}: expected an object, got {_got(value)}")
    return value


def _decode(hint: Any, value: Any, path: str) -> Any:
    if hint is object:  # audit values: any JSON, lists read back as tuples
        return tuple(_decode(object, v, path) for v in value) if type(value) is list else value
    if hint in _SCALARS:
        if type(value) is not hint:  # so a bool is not an int
            raise SchemaError(f"{path}: expected {hint.__name__}, got {_got(value)}")
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS:
        if value is None and type(None) in args:
            return None
        members = [a for a in args if a is not type(None)]
        if len(members) > 1:  # the slot union, told apart by its kind tag
            kind = _member(_object(value, path), "kind", str, path)
            members = [m for m in members if KINDS.get(m) == kind]
            if not members:
                raise SchemaError(f"{path}: unknown slot kind {kind!r}")
        return _decode(members[0], value, path)
    if hint is dict or origin is dict:
        obj = _object(value, path)
        if not args:
            return dict(obj)
        return {k: _decode(args[1], v, f"{path}.{k}") for k, v in obj.items()}
    if origin is tuple:
        if type(value) is not list:
            raise SchemaError(f"{path}: expected a list, got {_got(value)}")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise SchemaError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(_decode(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    obj = _object(value, path)
    if hint is Degree0Class:  # symbol-keyed dicts, as _plain writes them
        generic = _member(obj, "generic", dict[str, int], path)
        torsion = _member(obj, "torsion", dict[str, tuple[int, int]], path)
        return Degree0Class(
            _member(obj, "pq", int, path),
            tuple(sorted(generic.items())),
            tuple(sorted((name, order, res) for name, (order, res) in torsion.items())),
        )
    head, fields, _ = _layout(hint)
    for tag, expected in head.items():  # an embedded certificate keeps its tags
        if obj.get(tag) != expected:
            raise SchemaError(f"{path}.{tag}: expected {expected!r}, got {obj.get(tag)!r}")
    return hint(**{f.name: _member(obj, f.name, f.hint, path) for f in fields})


def _member(obj: dict, key: str, hint: Any, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}: missing key {key!r}")
    return _decode(hint, obj[key], f"{path}.{key}")


def from_payload(p: Any) -> Any:
    """Decode a schema-tagged payload back into its object."""
    obj = _object(p, "payload")
    if obj.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {obj.get('schema')!r}")
    cls = _BY_TYPE.get(obj.get("type"))
    if cls is None:
        raise SchemaError(f"unknown payload type {obj.get('type')!r}")
    return _decode(cls, obj, obj["type"])


def loads(text: str) -> Any:
    return from_payload(json.loads(text))
