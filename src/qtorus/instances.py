"""JSON instance files describing multiparameter matrices.

Only entries above the diagonal are stored, so multiplicative antisymmetry
cannot be misstated; the rest of the matrix is completed on load.  The
serializer emits a canonical form (entries sorted by position, identity
entries and zero exponents omitted) so that fixed inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .pairing import MultiparameterMatrix
from .valuegroup import GroupElement, ValueGroup


class InstanceFormatError(ValueError):
    """Schema or invariant violation in an instance file, with field context."""


def _fail(where: str, message: str):
    raise InstanceFormatError(f"{where}: {message}")


def integer(value, where: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` if it is an integer in [low, high), else a format error at ``where``.

    JSON booleans and floats such as 2.5 or 2.0 are rejected, not truncated.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(where, f"expected an integer, got {value!r}")
    if low is not None and value < low:
        _fail(where, f"expected an integer >= {low}, got {value!r}")
    if high is not None and value >= high:
        _fail(where, f"expected an integer in [{low}, {high}), got {value!r}")
    return value


def scalar(group: ValueGroup, doc: dict, where: str, key: str = "exponents") -> GroupElement:
    """The value-group element that ``doc[key]`` (generator name -> integer
    exponent) and ``doc["torsion"]`` (an integer in [0, torsion order)) name."""
    exponents = doc.get(key, {})
    if not isinstance(exponents, dict):
        _fail(f"{where}.{key}", "expected an object mapping generator name to integer")
    free = [0] * group.free_rank
    for name, exp in exponents.items():
        if name not in group.free_names:
            _fail(f"{where}.{key}", f"unknown generator {name!r}")
        free[group.free_names.index(name)] = integer(exp, f"{where}.{key}.{name}")
    torsion = integer(doc.get("torsion", 0), f"{where}.torsion", 0, group.torsion_order)
    return GroupElement(group, tuple(free), torsion)


def parse_dict(doc) -> MultiparameterMatrix:
    if not isinstance(doc, dict):
        _fail("document", "expected a JSON object")
    rank = integer(doc.get("rank"), "rank", 1)
    vg_doc = doc.get("value_group")
    if not isinstance(vg_doc, dict):
        _fail("value_group", "expected an object with 'free' and 'torsion_order'")
    free = vg_doc.get("free", [])
    if not isinstance(free, list) or any(not isinstance(x, str) or not x for x in free):
        _fail("value_group.free", "expected a list of nonempty generator names")
    if len(set(free)) != len(free):
        _fail("value_group.free", "generator names must be distinct")
    torsion_order = integer(vg_doc.get("torsion_order", 1), "value_group.torsion_order", 1)
    group = ValueGroup(tuple(free), torsion_order)

    entries = doc.get("lambda", [])
    if not isinstance(entries, list):
        _fail("lambda", "expected a list of entry objects")
    upper: dict[tuple[int, int], GroupElement] = {}
    for pos, item in enumerate(entries):
        where = f"lambda[{pos}]"
        if not isinstance(item, dict):
            _fail(where, "expected an object")
        i, j = integer(item.get("i"), where + ".i"), integer(item.get("j"), where + ".j")
        if not (1 <= i < j <= rank):
            _fail(where, f"need 1 <= i < j <= rank, got i={i}, j={j} with rank {rank}")
        if (i, j) in upper:
            _fail(where, f"duplicate entry for ({i},{j})")
        upper[(i, j)] = scalar(group, item, where)
    return MultiparameterMatrix.from_upper(rank, group, upper)


def parse(source) -> MultiparameterMatrix:
    """Load an instance from a dict, a JSON string, a path, or a stream."""
    if isinstance(source, dict):
        return parse_dict(source)
    try:
        if isinstance(source, Path):
            text = source.read_text()
        elif isinstance(source, str):
            text = Path(source).read_text() if not source.lstrip().startswith("{") else source
        elif hasattr(source, "read"):
            text = source.read()
        else:
            _fail("document", f"cannot read instance from {type(source).__name__}")
        doc = json.loads(text)
    except UnicodeDecodeError as exc:
        _fail("document", f"not {exc.encoding} text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        _fail("document", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return parse_dict(doc)


def serialize(mat: MultiparameterMatrix) -> dict:
    """Canonical plain-dict form; parse(serialize(m)) reproduces m."""
    group = mat.value_group
    entries = []
    for i in range(1, mat.rank + 1):
        for j in range(i + 1, mat.rank + 1):
            e = mat.entry(i, j)
            if e.is_identity():
                continue
            exponents = {
                name: exp for name, exp in zip(group.free_names, e.free) if exp != 0
            }
            entries.append(
                {"i": i, "j": j, "exponents": exponents, "torsion": e.torsion}
            )
    return {
        "rank": mat.rank,
        "value_group": {
            "free": list(group.free_names),
            "torsion_order": group.torsion_order,
        },
        "lambda": entries,
    }


def dumps(mat: MultiparameterMatrix) -> str:
    """Canonical JSON text (sorted keys, stable separators, trailing newline)."""
    return json.dumps(serialize(mat), sort_keys=True, indent=2) + "\n"


def write(mat: MultiparameterMatrix, path) -> None:
    Path(path).write_text(dumps(mat))
