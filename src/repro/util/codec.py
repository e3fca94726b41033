"""One typed codec for every declarative JSON document the system reads.

A spec class is a frozen dataclass and the dataclass *is* the schema:
:func:`decode` reads a document against the field annotations — ``int``
/ ``float`` / ``str`` / ``bool``, ``X | None``, ``tuple[X, ...]``,
nested specs, and unions of specs tagged by their ``kind`` — and
:func:`encode` writes the fields back in declaration order.  Every
failure is raised as the caller's ``error`` class with a field path in
the grammar ``a.b[i].c`` (a ``__post_init__`` rejection under the path
of the object it rejected), unknown keys are errors, and
:func:`read_json` is the only place a spec file is opened and parsed.

Input sugar that is not a field stays on its class as a hook:
``_before_decode(cls, data)`` rewrites the raw document before the
fields are read, ``_after_encode(self, out)`` trims the emitted one.
Decoders are built once per class and cached.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import types
import typing as t

from repro.errors import ReproError

__all__ = [
    "encode",
    "decode",
    "parse_json",
    "read_json",
    "typed_errors",
    "Spec",
    "SpecList",
]

_Convert = t.Callable[[t.Any], t.Any]
_UNIONS = (t.Union, types.UnionType)


class _Fail(Exception):
    """A decode failure on its way up; each frame appends its path segment."""

    def __init__(self, message: str) -> None:
        self.message = message
        self.path: list[str | int] = []  # innermost segment first

    def render(self) -> str:
        where = ""
        for segment in reversed(self.path):
            if isinstance(segment, int):
                where += f"[{segment}]"
            else:
                where += f".{segment}" if where else segment
        return f"{where}: {self.message}" if where else self.message


def _at(segment: str | int, convert: _Convert, value: t.Any) -> t.Any:
    try:
        return convert(value)
    except _Fail as fail:
        fail.path.append(segment)
        raise


def _scalar(cast: type, accepts: tuple[type, ...], noun: str) -> _Convert:
    def convert(value: t.Any) -> t.Any:
        # ``True`` is an ``int`` to isinstance, but not a number to a reader.
        if not isinstance(value, accepts) or isinstance(value, bool) is not (cast is bool):
            raise _Fail(f"expected {noun}, got {value!r}")
        return cast(value)

    return convert


_SCALARS: dict[t.Any, _Convert] = {
    int: _scalar(int, (int,), "an integer"),
    float: _scalar(float, (int, float), "a number"),
    str: _scalar(str, (str,), "a string"),
    bool: _scalar(bool, (bool,), "true or false"),
}


def _converter(hint: t.Any, owner: type) -> _Convert:
    """The decoder of one annotated position inside ``owner``."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    if dataclasses.is_dataclass(hint):
        return _decoder(hint)
    origin, args = t.get_origin(hint), t.get_args(hint)
    if origin in _UNIONS and type(None) in args:
        (present,) = (arg for arg in args if arg is not type(None))
        inner = _converter(present, owner)
        return lambda value: None if value is None else inner(value)
    if origin in _UNIONS:  # specs told apart by their ``kind`` tag
        kinds = {member.kind: _decoder(member) for member in args}
        item = owner._item

        def convert_tagged(value: t.Any) -> t.Any:
            if not isinstance(value, t.Mapping):
                raise _Fail(f"expected a JSON object, got {value!r}")
            kind = value.get("kind")
            if kind not in kinds:
                raise _Fail(f"unknown {item} kind {kind!r}; known: {', '.join(sorted(kinds))}")
            try:
                return kinds[kind]({k: v for k, v in value.items() if k != "kind"})
            except _Fail as fail:
                fail.message = f"bad {kind} specification: {fail.message}"
                raise

        return convert_tagged
    if origin is tuple and args[1:] == (Ellipsis,):
        entry = _converter(args[0], owner)

        def convert_list(value: t.Any) -> tuple:
            if not isinstance(value, (list, tuple)):
                raise _Fail(f"expected a list, got {value!r}")
            return tuple(_at(i, entry, item) for i, item in enumerate(value))

        return convert_list
    raise TypeError(f"{owner.__name__}: the spec codec cannot decode a {hint!r} field")


@functools.cache
def _decoder(cls: type) -> _Convert:
    hints = t.get_type_hints(cls)
    fields = [
        (f.name, _converter(hints[f.name], cls), f.default)
        for f in dataclasses.fields(cls)
    ]
    known = ", ".join(sorted(name for name, _, _ in fields))
    names = frozenset(name for name, _, _ in fields)
    desugar = getattr(cls, "_before_decode", None)

    def convert(data: t.Any) -> t.Any:
        try:
            if desugar is not None:
                data = desugar(data)
            if not isinstance(data, t.Mapping):
                raise _Fail(f"expected a JSON object, got {data!r}")
            for key in data.keys() - names:
                raise _Fail(f"unknown key {key!r}; known: {known}")
            values = []
            for name, field_convert, default in fields:
                if name in data:
                    values.append(_at(name, field_convert, data[name]))
                elif default is dataclasses.MISSING:
                    raise _Fail(f"missing required key {name!r}")
                else:
                    values.append(default)
            return cls(*values)
        except (ReproError, TypeError, ValueError) as problem:
            # The hook's or __post_init__'s own rejection: same path rules.
            raise _Fail(str(problem)) from None

    return convert


def decode(cls: type, data: t.Any, *, error: type[Exception], where: str = "") -> t.Any:
    """Build a ``cls`` from plain JSON data; every failure is an ``error``.

    ``where`` is the path of ``data`` inside a larger hand-walked
    document (``root.children[2]``), prefixed to the field path.
    """
    try:
        return _decoder(cls)(data)
    except _Fail as fail:
        if where:
            fail.path.append(where)
        raise error(fail.render()) from None


def _plain(value: t.Any) -> t.Any:
    if dataclasses.is_dataclass(value):
        return encode(value)
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def encode(spec: t.Any) -> dict[str, t.Any]:
    """The plain-data (JSON-compatible) form of a spec, fields in order.

    A class carrying a ``kind`` tag emits it first, so a union member
    says which member it is.
    """
    cls = type(spec)
    out = {"kind": cls.kind} if hasattr(cls, "kind") else {}
    for field in dataclasses.fields(cls):
        out[field.name] = _plain(getattr(spec, field.name))
    trim = getattr(cls, "_after_encode", None)
    return out if trim is None else trim(spec, out)


def parse_json(text: str, *, error: type[Exception], what: str) -> t.Any:
    """``json.loads`` with a typed error naming ``what`` was being parsed."""
    try:
        return json.loads(text)
    except ValueError as problem:
        raise error(f"{what} is not valid JSON: {problem}") from None


def read_json(path: str | os.PathLike[str], *, error: type[Exception], what: str) -> t.Any:
    """Open and parse one JSON file — the only place a spec file is read."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as problem:
        raise error(f"cannot read {what} {str(path)!r}: {problem}") from None
    return parse_json(text, error=error, what=f"{what} {str(path)!r}")


@contextlib.contextmanager
def typed_errors(error: type[Exception], where: str) -> t.Iterator[None]:
    """Turn what walking a malformed record by hand raises into ``error``.

    For the documents whose shape is not a dataclass (the topology tree,
    ``"i,j"``-keyed parameter maps, probe arrays, run records): a missing
    key, a wrong type or a rejected value inside the block is re-raised
    as ``error(f"{where}: ...")`` instead of escaping as a traceback.
    An ``error`` raised inside already says where and passes unchanged.
    """
    try:
        yield
    except error:
        raise
    except (ReproError, KeyError, TypeError, ValueError, AttributeError) as problem:
        detail = f"missing key {problem}" if type(problem) is KeyError else str(problem)
        raise error(f"{where}: {detail}") from None


class Spec:
    """Mixin giving a frozen dataclass ``to_dict`` / ``from_dict`` / ``from_file``.

    ``_error`` is the :class:`~repro.errors.ReproError` subclass the
    owning module raises for a malformed document, ``_what`` the noun
    file errors use (``cannot read fault plan 'p.json': ...``).
    """

    _error: t.ClassVar[type[Exception]] = ReproError
    _what: t.ClassVar[str] = "spec"

    def to_dict(self) -> dict[str, t.Any]:
        """Plain-data representation (JSON-compatible)."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: t.Mapping[str, t.Any]) -> t.Any:
        """Rebuild from :meth:`to_dict` output (or a hand-written document)."""
        return decode(cls, data, error=cls._error)

    @classmethod
    def from_file(cls, path: str | os.PathLike[str]) -> t.Any:
        """Load from a JSON file; errors name the file, then the field path."""
        data = read_json(path, error=cls._error, what=cls._what)
        try:
            return cls.from_dict(data)
        except cls._error as problem:
            raise cls._error(f"{path}: {problem}") from None


class SpecList(Spec):
    """An ordered, immutable collection of ``kind``-tagged specs.

    The base of :class:`~repro.faults.FaultPlan` and
    :class:`~repro.dynamics.DynamicPlan`.  A subclass is a frozen
    dataclass (``init=False, repr=False``) declaring its one list field
    — ``faults: tuple[FaultSpec, ...]`` — plus ``_field`` (that field's
    name), ``_kinds`` (the member classes), ``_item`` (``"fault"``),
    ``_what`` (``"fault plan"``) and ``_error``.
    """

    _field: t.ClassVar[str]
    _kinds: t.ClassVar[tuple[type, ...]]
    _item: t.ClassVar[str]

    def __init__(self, specs: t.Any = ()) -> None:
        if type(specs) in self._kinds:  # a bare spec: wrap it
            specs = (specs,)
        specs = tuple(specs)
        for spec in specs:
            if type(spec) not in self._kinds:
                raise self._error(f"not a {self._item} specification: {spec!r}")
        object.__setattr__(self, self._field, specs)

    @classmethod
    def empty(cls) -> t.Any:
        """The no-op plan: runs with it are bit-identical to runs without."""
        return cls()

    @property
    def is_empty(self) -> bool:
        """True when the plan changes nothing."""
        return not getattr(self, self._field)

    def __len__(self) -> int:
        return len(getattr(self, self._field))

    def __iter__(self) -> t.Iterator[t.Any]:
        return iter(getattr(self, self._field))

    def extended(self, *specs: t.Any) -> t.Any:
        """A new plan with ``specs`` appended."""
        return type(self)(getattr(self, self._field) + tuple(specs))

    @classmethod
    def from_dict(cls, data: t.Mapping[str, t.Any]) -> t.Any:
        """Rebuild a plan from :meth:`to_dict` output."""
        if not isinstance(data, t.Mapping) or cls._field not in data:
            raise cls._error(f'{cls._what} must be an object with a "{cls._field}" list')
        return super().from_dict(data)

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialise to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> t.Any:
        """Parse a plan from a JSON document."""
        return cls.from_dict(parse_json(text, error=cls._error, what=cls._what))

    def __repr__(self) -> str:
        kinds = ", ".join(spec.kind for spec in self) or "empty"
        return f"{type(self).__name__}({kinds})"
