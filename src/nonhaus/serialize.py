"""Lossless JSON and plain-text interchange for every certificate type.

Wire rule.  A dataclass is a JSON object whose ``"kind"`` is the class
name in kebab-case (``PLPath`` -> ``"pl-path"``) and which has one key per
dataclass field, named after the field.  Each field's JSON form follows
its type hint:

* ``Fraction``: a ``"numerator/denominator"`` string, never a float;
* ``int``, ``str``, ``bool``, ``float``: the JSON scalar (floats occur
  only in the thickened report);
* ``tuple[X, ...]`` and fixed ``tuple[X, Y, ...]``: a JSON list;
* ``Optional[X]``: ``null`` or the form of X;
* a dataclass or a union of dataclasses: the nested ``kind``-tagged object.

There is no list of kinds and no ``Enum`` form.  The reader names the root
type (``loads(text, ReportDocument)``), and each slot's type hint names
the kinds it accepts, so the dataclasses alone state the vocabulary.
:func:`decode` rebuilds the original dataclass, ``decode(encode(x),
type(x)) == x`` holds for every type with a JSON form, and malformed data
raises ``ValueError`` naming the class and field.

:func:`encode` and :func:`decode` are the tree codec.  :func:`dumps` writes
the JSON text itself, in one walk that builds no tree: its output is
exactly the bytes of ``json.dumps(encode(x), sort_keys=True, indent=2)``
plus a newline.  A plain list may hold dataclass values; a dict has no JSON
form.

Lift products.  A :class:`~nonhaus.lifting.LiftProduct` has the JSON form
of the list of its lifts, in its lexicographic order.  :func:`dumps`
encodes its base path once and each distinct option value once, and writes
each lift as one join of the texts its choices pick.

Text formats:

* paths: header ``plpath v1``, then one ``t x`` rational pair per line;
* fields: header ``plfield v1``, a dimension line ``ns nt``, one line of
  ns s-breaks, one line of nt t-breaks, then ns rows of nt values each
  (row a holds the values over s_breaks[a], ordered by t).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import types
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, floordiv
from typing import Any, Callable, Iterable, Optional, Union, get_args, get_origin, get_type_hints

from .lifting import HomotopyField, LiftedPath, LiftProduct, PLPath, RationalGrid


def frac_str(x: Fraction) -> str:
    return "%d/%d" % x.as_integer_ratio()


# one "n/d" token as frac_str writes it: ASCII digits, no sign but "-", no leading zero, no "-0"
_STRICT_TOKEN = r"(?:0|-?[1-9][0-9]*)/[1-9][0-9]*"
_strict_token = re.compile(_STRICT_TOKEN).fullmatch


def parse_frac(s: str) -> Fraction:
    """Exact rational from ``"n/d"``, ``"n"`` or a decimal; ValueError otherwise.

    A strict token is read as its two ints, anything else by ``Fraction(s)``;
    values and error texts agree, as ``Fraction`` passes on ``int``'s refusal
    of an over-long numeral."""
    if _strict_token(s):
        n, d = s.split("/")
        return Fraction(int(n), int(d))
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


# A converter maps one field value to its JSON form or back.  An encoder of
# None means the value is kept as it is: a scalar, or a nested value (a
# dataclass, a tuple of them) that encode and dumps walk into themselves.
Converter = Callable[[Any], Any]

# type met -> None, or for a dataclass (wire fields, decoder), derived from its
# type hints on first use, so importing this module evaluates none; a wire field
# is (name, quoted name + ": ", getter, encoder), sorted by name, "kind" among them
_CODECS: dict[type, Optional[tuple[tuple, Callable[[dict], Any]]]] = {}


def _kind(cls: type) -> str:
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])", "-", cls.__name__).lower()


def _as_list(value: Any, length: Optional[int] = None) -> list:
    if type(value) is not list or (length is not None and len(value) != length):
        expected = "a list" if length is None else f"a list of {length}"
        raise ValueError(f"expected {expected}, got {json.dumps(value)[:40]}")
    return value


# each scalar slot takes only its own JSON type and how it is read: bool is
# not an int, an int may stand for a float, and a Fraction travels as text
_SCALAR_JSON = {int: ((int,), int), bool: ((bool,), bool), str: ((str,), str),
                float: ((float, int), float), Fraction: ((str,), parse_frac)}


def _strict(hint: type) -> Converter:
    accepted, read = _SCALAR_JSON[hint]

    def dec(value: Any) -> Any:
        if type(value) not in accepted:
            raise ValueError(f"expected {hint.__name__}, got {json.dumps(value)[:40]}")
        return read(value)

    return dec


def _int_tuple(value: Any) -> tuple[int, ...]:
    # one C-level pass over the types, for rows of up to k! ints
    if not set(map(type, _as_list(value))) <= {int}:
        raise ValueError(f"expected a list of ints, got {json.dumps(value)[:40]}")
    return tuple(value)


def _instance_of(classes: tuple[type, ...]) -> Converter:
    """Decoder of an object of one of classes, by its kind; other values are read no further."""
    by_kind = {_kind(c): c for c in classes}
    names = " or ".join(c.__name__ for c in classes)

    def dec(value: Any) -> Any:
        kind = value.get("kind") if type(value) is dict else None
        cls = by_kind.get(kind) if type(kind) is str else None
        if cls is None:
            raise ValueError(f"expected {names}, got {json.dumps(value)[:40]}")
        return _codec(cls)[1](value)

    return dec


def _converters(hint: Any) -> tuple[Optional[Converter], Converter]:
    """(encoder, decoder) for values of one field type hint."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in _SCALAR_JSON:
        return (frac_str if hint is Fraction else None), _strict(hint)
    if hint is RationalGrid:  # written from its row texts; read as the Fraction rows it holds
        return None, _converters(tuple[tuple[Fraction, ...], ...])[1]
    if dataclasses.is_dataclass(hint):
        return None, _instance_of((hint,))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        if args[0] is int:
            return None, _int_tuple
        enc, dec = _converters(args[0])
        return (
            None if enc is None else (lambda v: list(map(enc, v))),
            lambda v: tuple(map(dec, _as_list(v))),
        )
    if origin is tuple:
        pairs = [_converters(a) for a in args]
        encs = [(lambda v: v) if e is None else e for e, _ in pairs]
        decs = [d for _, d in pairs]
        return (
            None if all(e is None for e, _ in pairs) else (lambda v: [e(x) for e, x in zip(encs, v)]),
            lambda v: tuple(d(x) for d, x in zip(decs, _as_list(v, len(decs)))),
        )
    if origin in (Union, types.UnionType):
        members = tuple(a for a in args if a is not type(None))
        if len(members) < len(args):
            enc, dec = _converters(Union[members])
            return (
                None if enc is None else (lambda v: None if v is None else enc(v)),
                lambda v: None if v is None else dec(v),
            )
        if all(dataclasses.is_dataclass(m) for m in members):
            return None, _instance_of(members)
    raise TypeError(f"no JSON form for type hint {hint!r}")


def _codec(cls: type) -> Optional[tuple]:
    """cls's codec, derived and kept on first use; None if cls is not a dataclass."""
    codec = _CODECS.get(cls, False)
    if codec is False:
        codec = _CODECS[cls] = _derive(cls) if dataclasses.is_dataclass(cls) else None
    return codec


def _derive(cls: type) -> tuple:
    hints = get_type_hints(cls)
    kind = _kind(cls)
    wire_fields = [("kind", lambda obj: kind, None)]
    decoders = []
    for f in dataclasses.fields(cls):
        if f.name == "kind":
            raise TypeError(f"{cls.__name__}.kind collides with the kind tag")
        enc, dec = _converters(hints[f.name])
        wire_fields.append((f.name, attrgetter(f.name), enc))
        decoders.append((f.name, dec))
    wire_fields.sort(key=lambda f: f[0])
    return (
        tuple((name, _quote(name) + ": ", get, enc) for name, get, enc in wire_fields),
        _object_decoder(cls, decoders),
    )


def _object_decoder(cls: type, fields: list) -> Callable[[dict], Any]:
    def dec(data: dict) -> Any:
        values = []
        try:
            for name, conv in fields:
                values.append(conv(data[name]))
        except KeyError:
            raise ValueError(f"{cls.__name__}: missing field {name!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{cls.__name__}.{name}: {exc}") from None
        return cls(*values)

    return dec


def encode(obj: Any) -> Any:
    """Encode a dataclass, a primitive, or a list of them, into JSON-ready data;
    a lift product encodes as the list of its lifts."""
    codec = _codec(type(obj))
    if codec is not None:
        return {wire: encode(get(obj) if enc is None else enc(get(obj)))
                for wire, _, get, enc in codec[0]}
    if obj is None or isinstance(obj, (bool, int, str, float)):
        return obj
    if isinstance(obj, (list, tuple, LiftProduct)):
        return [encode(v) for v in obj]
    if type(obj) is RationalGrid:
        return [ln.split() for ln in obj.lines]
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def decode(data: Any, hint: Any) -> Any:
    """Inverse of :func:`encode`: the value of type hint ``hint`` that data encodes."""
    return _converters(hint)[1](data)


# --- JSON text ------------------------------------------------------------------

_SCALARS = frozenset({str, int, float, bool, type(None)})
_INF = float("inf")


def _scalar(v: Any) -> str:
    """The text json.dumps gives a str, int, float, bool or None."""
    if isinstance(v, str):
        return _quote(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == _INF:
            return "Infinity"
        if v == -_INF:
            return "-Infinity"
        return float.__repr__(v)
    raise TypeError(f"no JSON form for {type(v).__name__}")


def _list_frame(depth: int) -> tuple[str, str, str]:
    """The text before, between and after the items of a non-empty list at depth."""
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner, "," + inner, inner[:-2] + "]"


class _Slot:
    """Stands for one field while an object's frame is written; ``at`` is the
    index of the output pieces where that field's text belongs."""

    at = 0


def dumps(obj: Any) -> str:
    """Deterministic JSON text for a dataclass, a primitive, a lift product, or a list of them.

    The text is exactly ``json.dumps(encode(obj), sort_keys=True, indent=2)``
    plus a newline, written in one walk over obj.  A lift product is written
    as the list of its lifts without building them: the lift frame with the
    base path in place once, each distinct option value once, and each lift
    as one join of the texts its choices pick.  A field's grid is written from
    its row texts: canonical (a line is kept only in the strict form with
    every gcd 1), so each token is encode's ``"n/d"``, which JSON never escapes.
    A list of ints (a deck-table row) is joined from the texts ``repr(i)`` of
    the indices ``0..len(row) - 1``, held for this call only.  json.dumps
    writes an int as ``int.__repr__``, so a looked-up text is its byte for
    byte; a row with a negative int or one past the indices is formatted.
    """
    out = _pieces(obj, 0)
    out.append("\n")
    return "".join(out)


def _pieces(obj: Any, depth: int) -> list[str]:
    """The JSON text of obj written at depth, as a list of pieces."""
    out: list[str] = []
    index_texts: dict[int, str] = {}  # i -> repr(i), grown to the longest int row met

    def write(value: Any, depth: int) -> None:
        cls = type(value)
        if cls in _SCALARS:
            out.append(_scalar(value))
            return
        codec = _codec(cls)
        if codec is not None:
            write_members(((key, get(value) if enc is None else enc(get(value)))
                           for _, key, get, enc in codec[0]), depth)
        elif isinstance(value, (list, tuple)):
            if value:
                write_list(value, depth)
            else:
                out.append("[]")
        elif cls is LiftProduct:
            _write_lift_product(out, value, depth)
        elif cls is RationalGrid:  # quotes and a separator at each space of a row's text
            opening, sep, closing = _list_frame(depth)
            row_open, row_sep, row_close = _list_frame(depth + 1)
            out.append(opening + sep.join([row_open + '"' + ln.replace(" ", '"' + row_sep + '"') + '"'
                                           + row_close for ln in value.lines]) + closing)
        elif cls is _Slot:
            value.at = len(out)
        else:
            out.append(_scalar(value))

    def write_members(members: Iterable[tuple[str, Any]], depth: int) -> None:
        """A non-empty object from its (quoted key + ": ", value) pairs, in key order."""
        inner = "\n" + "  " * (depth + 1)
        sep = "{" + inner
        for key, value in members:
            if type(value) in _SCALARS:
                out.append(sep + key + _scalar(value))
            else:
                out.append(sep + key)
                write(value, depth + 1)
            sep = "," + inner
        out.append(inner[:-2] + "}")

    def write_list(values: Any, depth: int) -> None:
        """A non-empty list; one of scalars in one join, an int row's texts by lookup."""
        opening, sep, closing = _list_frame(depth)
        kinds = set(map(type, values))
        if kinds <= _SCALARS:  # a deck-table row, a path's rationals: one join
            if kinds == {int}:  # each entry's text looked up, or formatted past the table
                index_texts.update((i, repr(i)) for i in range(len(index_texts), len(values)))
                try:
                    text = sep.join(map(index_texts.__getitem__, values))
                except KeyError:
                    text = sep.join(map(int.__repr__, values))
            else:
                text = sep.join(map(_quote if kinds == {str} else _scalar, values))
            out.append(opening + text + closing)
            return
        for value in values:
            out.append(opening)
            write(value, depth + 1)
            opening = sep
        out.append(closing)

    write(obj, depth)
    return out


def _write_lift_product(out: list[str], product: LiftProduct, depth: int) -> None:
    """Append the list of a product's lifts at depth, the text of ``list(product)``.

    A lift is a LiftedPath object at depth + 1: its frame (keys, kind tag,
    indentation and base path) comes from its codec, written once around a
    slot for its values; the values list holds the option values at
    depth + 3, each distinct one written once.  The text between two lifts
    is one string that every gap shares, so only the caller's final join
    copies the whole text.
    """
    slot = _Slot()
    frame = _pieces(LiftedPath(product.base, slot), depth + 1)
    values_open, values_sep, values_close = _list_frame(depth + 2)
    head = "".join(frame[:slot.at]) + values_open
    tail = values_close + "".join(frame[slot.at:])
    distinct = {id(v): v for options in product.options for v in options}
    texts = {key: "".join(_pieces(v, depth + 3)) for key, v in distinct.items()}
    columns = [[texts[id(v)] for v in options] for options in product.options]
    opening, sep, closing = _list_frame(depth)
    between = tail + sep + head
    out.append(opening + head)
    for choice in itertools.product(*columns):
        out += (values_sep.join(choice), between)
    out[-1] = tail + closing


def loads(text: str, hint: Any, precheck: Optional[Callable[[Any], None]] = None) -> Any:
    """The value of type hint ``hint`` that the JSON text encodes.

    ``precheck``, if given, is called with the parsed JSON before it is
    decoded, so a reader can refuse a document by one field, such as its
    version, before the rest of its shape is read; the text is parsed once.
    """
    try:
        data = json.loads(text)
        if precheck is not None:
            precheck(data)
        return decode(data, hint)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


# --- plain-text formats ---------------------------------------------------------

PLPATH_HEADER = "plpath v1"
PLFIELD_HEADER = "plfield v1"


def write_pl_path(path: PLPath) -> str:
    lines = [PLPATH_HEADER]
    lines += [f"{frac_str(t)} {frac_str(x)}" for t, x in path.breakpoints]
    return "\n".join(lines) + "\n"


def _content_lines(text: str, header: str) -> list[tuple[int, str]]:
    """The non-blank lines after the header line, each with its line number."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].strip() != header:
        raise ValueError(f"expected header {header!r}")
    return lines[1:]


# a line as write_pl_path and write_field emit it: strict tokens, single-space separated
_STRICT_LINE = re.compile(f"{_STRICT_TOKEN}(?: {_STRICT_TOKEN})*")


def _ratios(line: str) -> tuple[tuple[int, ...], tuple[int, ...], Optional[str]]:
    """The reduced numerators and positive denominators of one text line's
    rationals, and the line itself if it is already their canonical text.

    A line in the strict form becomes ints in one JSON parse, which takes
    exactly that grammar and refuses an over-long numeral as ``int`` does;
    with every gcd 1 it is kept, being the text the writers would format,
    and otherwise divided by the gcds.  Any other line (``007/03``, ``-0/5``,
    bare ints, decimals, ``+1/2``, a zero denominator, tabs, non-ASCII
    digits) is read token by token, so every value and error message is that
    of :func:`parse_frac`.
    """
    if _STRICT_LINE.fullmatch(line):
        ints = json.loads("[" + line.replace("/", ",").replace(" ", ",") + "]")
        nums, dens = ints[::2], ints[1::2]
        gcds = list(map(math.gcd, nums, dens))
        if gcds.count(1) == len(gcds):
            return tuple(nums), tuple(dens), line
        return tuple(map(floordiv, nums, gcds)), tuple(map(floordiv, dens, gcds)), None
    return (*zip(*(parse_frac(v).as_integer_ratio() for v in line.split())), None)


def read_pl_path(text: str) -> PLPath:
    pts = []
    for no, ln in _content_lines(text, PLPATH_HEADER):
        pair = list(map(Fraction, *_ratios(ln)[:2]))
        if len(pair) != 2:
            raise ValueError(f"plpath line {no}: expected two rationals 't x', "
                             f"got {len(pair)}")
        pts.append(pair)
    return PLPath(tuple(pts))


def write_field(field: HomotopyField) -> str:
    lines = [PLFIELD_HEADER, f"{len(field.s_breaks)} {len(field.t_breaks)}"]
    lines.append(" ".join(frac_str(s) for s in field.s_breaks))
    lines.append(" ".join(frac_str(t) for t in field.t_breaks))
    lines += field.values.lines
    return "\n".join(lines) + "\n"


def read_field(text: str) -> HomotopyField:
    """A field from its ``plfield v1`` text.

    Every line of values goes through :func:`_ratios`, as the ints of a grid:
    the rows :func:`write_field` emits as int pairs, keeping their lines (in
    the strict form with every gcd 1, so canonical) for the writers to print,
    and any other spelling token by token, with the same values either way.
    """
    lines = _content_lines(text, PLFIELD_HEADER)
    if len(lines) < 3:
        raise ValueError("expected a dimension line and two break lines")
    no, dims = lines[0]
    sizes = dims.split()
    if len(sizes) != 2:
        raise ValueError(f"plfield line {no}: expected the grid sizes 'ns nt', "
                         f"got {len(sizes)}")
    ns, nt = map(int, sizes)
    s_breaks, t_breaks = (list(map(Fraction, *_ratios(ln)[:2])) for _, ln in lines[1:3])
    if len(s_breaks) != ns or len(t_breaks) != nt:
        raise ValueError("grid dimensions do not match the break lines")
    if len(lines) != 3 + ns:
        raise ValueError(f"expected {ns} value rows, got {len(lines) - 3}")
    rows = zip(*(_ratios(ln) for _, ln in lines[3:]))  # nums, dens and kept lines
    return HomotopyField(s_breaks, t_breaks, RationalGrid(*rows))
