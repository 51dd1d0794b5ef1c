"""Concrete type objects.

Scalar types are singletons (``BIGINT``, ``DOUBLE``, ...). Parametric
types (``ArrayType``, ``MapType``, ``RowType``) are structural value
objects. ``FunctionType`` types lambda expressions used by higher-order
functions such as ``transform`` and ``filter`` (paper Sec. IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NumericValueOutOfRangeError, TypeError_


@dataclass(frozen=True)
class Type:
    """A scalar SQL type identified by name."""

    name: str

    def __str__(self) -> str:
        return self.name

    @property
    def is_numeric(self) -> bool:
        return self.name in ("integer", "bigint", "double")

    @property
    def is_integral(self) -> bool:
        return self.name in ("integer", "bigint")

    @property
    def is_orderable(self) -> bool:
        return self.name != "unknown" and not isinstance(self, (MapType, FunctionType))

    @property
    def is_comparable(self) -> bool:
        return not isinstance(self, FunctionType)


@dataclass(frozen=True)
class ArrayType(Type):
    """``ARRAY(T)`` — variable-length list of elements of one type."""

    element: Type = field(default=None)  # type: ignore[assignment]

    def __str__(self) -> str:
        return f"array({self.element})"

    @property
    def is_orderable(self) -> bool:
        return self.element.is_orderable


@dataclass(frozen=True)
class MapType(Type):
    """``MAP(K, V)`` — keys must be comparable."""

    key: Type = field(default=None)  # type: ignore[assignment]
    value: Type = field(default=None)  # type: ignore[assignment]

    def __str__(self) -> str:
        return f"map({self.key}, {self.value})"

    @property
    def is_orderable(self) -> bool:
        return False


@dataclass(frozen=True)
class RowType(Type):
    """``ROW(f1 T1, ...)`` — a named tuple of fields."""

    fields: tuple[tuple[str | None, Type], ...] = ()

    def __str__(self) -> str:
        parts = ", ".join(
            f"{name} {ftype}" if name else str(ftype) for name, ftype in self.fields
        )
        return f"row({parts})"

    def field_type(self, name: str) -> Type:
        for fname, ftype in self.fields:
            if fname is not None and fname.lower() == name.lower():
                return ftype
        raise TypeError_(f"Row type {self} has no field '{name}'")


@dataclass(frozen=True)
class FunctionType(Type):
    """The type of a lambda: ``(A1, ..., An) -> R``."""

    argument_types: tuple[Type, ...] = ()
    return_type: Type = field(default=None)  # type: ignore[assignment]

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.argument_types)
        return f"function({args}) -> {self.return_type}"

    @property
    def is_comparable(self) -> bool:
        return False


BOOLEAN = Type("boolean")
INTEGER = Type("integer")
BIGINT = Type("bigint")
BIGINT_MIN, BIGINT_MAX = -(1 << 63), (1 << 63) - 1
DOUBLE = Type("double")
VARCHAR = Type("varchar")
VARBINARY = Type("varbinary")
DATE = Type("date")
TIMESTAMP = Type("timestamp")
# The type of NULL literals before coercion; coercible to anything.
UNKNOWN = Type("unknown")

_SCALARS = {
    t.name: t
    for t in (BOOLEAN, INTEGER, BIGINT, DOUBLE, VARCHAR, VARBINARY, DATE, TIMESTAMP, UNKNOWN)
}
# Common aliases accepted by the parser / clients.
_ALIASES = {
    "int": INTEGER,
    "string": VARCHAR,
    "long": BIGINT,
    "float": DOUBLE,
    "real": DOUBLE,
}


def ARRAY(element: Type) -> ArrayType:
    """Construct an ``ARRAY(element)`` type."""
    return ArrayType("array", element)


def MAP(key: Type, value: Type) -> MapType:
    """Construct a ``MAP(key, value)`` type."""
    return MapType("map", key, value)


def ROW(*fields: tuple[str | None, Type]) -> RowType:
    """Construct a ``ROW(...)`` type from (name, type) pairs."""
    return RowType("row", tuple(fields))


def parse_type(text: str) -> Type:
    """Parse a type name like ``bigint``, ``array(varchar)``, ``map(bigint, double)``.

    >>> parse_type("array(map(varchar, bigint))")
    ArrayType(name='array', element=MapType(name='map', key=Type(name='varchar'), value=Type(name='bigint')))
    """
    parsed, rest = _parse_type(text.strip())
    if rest.strip():
        raise TypeError_(f"Trailing text in type: {text!r}")
    return parsed


def _parse_type(text: str) -> tuple[Type, str]:
    text = text.lstrip()
    i = 0
    while i < len(text) and (text[i].isalnum() or text[i] == "_"):
        i += 1
    head, rest = text[:i].lower(), text[i:].lstrip()
    if not head:
        raise TypeError_(f"Malformed type: {text!r}")
    if head == "array":
        inner, rest = _expect_paren_group(rest, 1)
        return ARRAY(inner[0]), rest
    if head == "map":
        inner, rest = _expect_paren_group(rest, 2)
        return MAP(inner[0], inner[1]), rest
    if head == "row":
        return _parse_row(rest)
    if head in _SCALARS:
        scalar: Type = _SCALARS[head]
    elif head in _ALIASES:
        scalar = _ALIASES[head]
    else:
        raise TypeError_(f"Unknown type: {head!r}")
    # Accept and ignore length/precision parameters, e.g. varchar(255).
    if rest.startswith("("):
        depth, j = 0, 0
        for j, ch in enumerate(rest):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
        rest = rest[j + 1:]
    return scalar, rest


def _expect_paren_group(text: str, arity: int) -> tuple[list[Type], str]:
    if not text.startswith("("):
        raise TypeError_(f"Expected '(' in type, got: {text!r}")
    text = text[1:]
    parts: list[Type] = []
    while True:
        parsed, text = _parse_type(text)
        parts.append(parsed)
        text = text.lstrip()
        if text.startswith(","):
            text = text[1:]
            continue
        if text.startswith(")"):
            text = text[1:]
            break
        raise TypeError_(f"Malformed parametric type near: {text!r}")
    if len(parts) != arity:
        raise TypeError_(f"Expected {arity} type parameter(s), got {len(parts)}")
    return parts, text


def _parse_row(text: str) -> tuple[Type, str]:
    if not text.startswith("("):
        raise TypeError_(f"Expected '(' after row, got: {text!r}")
    text = text[1:]
    fields: list[tuple[str | None, Type]] = []
    while True:
        text = text.lstrip()
        # A field is either "name type" or just "type".
        i = 0
        while i < len(text) and (text[i].isalnum() or text[i] == "_"):
            i += 1
        word = text[:i].lower()
        after = text[i:].lstrip()
        if word and after and after[0] not in ",)(" and not _is_type_head(word):
            ftype, text = _parse_type(after)
            fields.append((text_field_name(word), ftype))
        else:
            ftype, text = _parse_type(text)
            fields.append((None, ftype))
        text = text.lstrip()
        if text.startswith(","):
            text = text[1:]
            continue
        if text.startswith(")"):
            text = text[1:]
            break
        raise TypeError_(f"Malformed row type near: {text!r}")
    return ROW(*fields), text


def text_field_name(word: str) -> str:
    return word


def _is_type_head(word: str) -> bool:
    return word in _SCALARS or word in _ALIASES or word in ("array", "map", "row")


def checked_bigint(value: int) -> int:
    """``value`` if it fits BIGINT; otherwise SQL's "numeric value out of
    range" (SQLSTATE 22003) instead of a silent int64 wrap. The engine's
    one range check: the compiler's arithmetic, negation and casts, and
    the ``abs`` and ``sum`` results, all call it."""
    if BIGINT_MIN <= value <= BIGINT_MAX:
        return value
    raise NumericValueOutOfRangeError(f"bigint out of range: {value}")
