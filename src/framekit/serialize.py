"""JSON wire formats shared with the command-line harness.

Complex entries are always two-element ``[re, im]`` arrays.

* frame:      ``{"dim": M, "vectors": [[[re, im], ...M entries], ...N rows]}``
* projection: ``{"size": N, "rank": M, "matrix": [[[re, im], ...], ...]}``
* admissibility query: ``{"a": [...], "M": int, "lambda": [...] optional}``
"""

import json
from itertools import chain

import numpy as np

from .admissibility import AdmissibleSequence, SpectrumSpec
from .frames import Frame
from .subspaces import Projection

__all__ = [
    "complex_array_to_lists",
    "lists_to_complex_array",
    "frame_to_dict",
    "frame_from_dict",
    "projection_to_dict",
    "projection_from_dict",
    "admissibility_query_from_dict",
    "load_json",
    "dump_json",
]


def complex_array_to_lists(a: np.ndarray) -> list:
    """2-D complex array -> nested lists of [re, im] pairs."""
    a = np.asarray(a)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def lists_to_complex_array(rows, name: str) -> np.ndarray:
    """Nested lists of [re, im] pairs -> 2-D complex array.

    Well-formed input (lists of equal-length nonempty lists of two-element
    lists of ``int`` or ``float``, not ``bool``) is decoded in one array
    pass; anything else goes through the per-entry loop, which names the
    first offending row or entry.
    """
    fast = _decode_well_formed(rows)
    if fast is not None:
        return fast
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{name} must be a nonempty list of rows")
    width = None
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ValueError(f"{name}[{i}] must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{name}[{i}] has {len(row)} entries, expected {width}")
        vals = []
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise ValueError(f"{name}[{i}][{j}] must be a two-element [re, im] array")
            try:
                vals.append(complex(entry[0], entry[1]))
            except OverflowError:
                raise ValueError(f"{name}[{i}][{j}] has an integer too large for a float") from None
        out.append(vals)
    return np.array(out, dtype=np.complex128)


def _decode_well_formed(rows) -> np.ndarray | None:
    """The (N, M) complex array of ``rows`` when every container is a list,
    every row has the same nonzero length, every entry two elements and
    every scalar is an ``int`` or ``float`` that fits a float64; None
    otherwise.  Each check runs over a whole level at C speed, and the flat
    float64 array is reinterpreted as complex128 without a copy, which gives
    the bits of ``complex(re, im)`` per entry."""
    if type(rows) is not list or set(map(type, rows)) != {list} or len(set(map(len, rows))) != 1:
        return None
    entries = list(chain.from_iterable(rows))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    flat = list(chain.from_iterable(entries))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        a = np.array(flat, dtype=np.float64)
    except OverflowError:
        return None
    return a.view(np.complex128).reshape(len(rows), -1)


def frame_to_dict(frame: Frame) -> dict:
    return {"dim": frame.dim, "vectors": complex_array_to_lists(frame.vectors)}


def frame_from_dict(d: dict) -> Frame:
    if not isinstance(d, dict):
        raise ValueError("frame JSON must be an object")
    for key in ("dim", "vectors"):
        if key not in d:
            raise ValueError(f"frame JSON is missing field {key!r}")
    dim = d["dim"]
    if type(dim) is not int or dim < 1:
        raise ValueError(f"field 'dim' must be a positive integer, got {dim!r}")
    vectors = lists_to_complex_array(d["vectors"], "vectors")
    if vectors.shape[1] != dim:
        raise ValueError(
            f"field 'dim' is {dim} but rows of 'vectors' have {vectors.shape[1]} entries"
        )
    return Frame(vectors)


def projection_to_dict(p: Projection) -> dict:
    return {"size": p.size, "rank": p.rank, "matrix": complex_array_to_lists(p.matrix)}


def projection_from_dict(d: dict) -> Projection:
    if not isinstance(d, dict):
        raise ValueError("projection JSON must be an object")
    for key in ("size", "rank", "matrix"):
        if key not in d:
            raise ValueError(f"projection JSON is missing field {key!r}")
    for key in ("size", "rank"):
        if type(d[key]) is not int or d[key] < 1:
            raise ValueError(f"field {key!r} must be a positive integer, got {d[key]!r}")
    matrix = lists_to_complex_array(d["matrix"], "matrix")
    p = Projection(matrix)
    if p.size != d["size"]:
        raise ValueError(f"field 'size' is {d['size']!r} but matrix is {p.size}x{p.size}")
    if p.rank != d["rank"]:
        raise ValueError(f"field 'rank' is {d['rank']!r} but matrix has rank {p.rank}")
    return p


def admissibility_query_from_dict(d: dict) -> tuple[AdmissibleSequence, SpectrumSpec | None]:
    if not isinstance(d, dict):
        raise ValueError("admissibility query must be an object")
    for key in ("a", "M"):
        if key not in d:
            raise ValueError(f"admissibility query is missing field {key!r}")
    m = d["M"]
    if type(m) is not int or m < 1:
        raise ValueError(f"field 'M' must be a positive integer, got {m!r}")
    seq = AdmissibleSequence(d["a"], m)
    spectrum = SpectrumSpec(d["lambda"]) if d.get("lambda") is not None else None
    return seq, spectrum


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
