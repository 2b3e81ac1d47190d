import json

import numpy as np
import pytest

from framekit import (
    Frame,
    cli,
    harmonic_frame,
    hs_norm,
    naimark_complement,
    projection_from_frame,
    random_parseval,
    reduce_to_small,
)
from framekit.serialize import (
    admissibility_query_from_dict,
    complex_array_to_lists,
    frame_from_dict,
    frame_to_dict,
    lists_to_complex_array,
    projection_from_dict,
    projection_to_dict,
)


def test_complex_array_roundtrip():
    a = np.array([[1 + 2j, 0.5], [0.0, -1j]])
    assert np.array_equal(lists_to_complex_array(complex_array_to_lists(a), "x"), a)


def test_frame_roundtrip():
    f = random_parseval(3, 7, 12)
    d = frame_to_dict(f)
    assert d["dim"] == 3 and len(d["vectors"]) == 7
    g = frame_from_dict(d)
    assert np.array_equal(g.vectors, f.vectors)


def test_frame_dict_validation():
    with pytest.raises(ValueError, match="missing field 'vectors'"):
        frame_from_dict({"dim": 2})
    with pytest.raises(ValueError, match="'dim'"):
        frame_from_dict({"dim": "two", "vectors": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError, match=r"vectors\[0\]\[0\]"):
        frame_from_dict({"dim": 1, "vectors": [[[1.0]], [[0.5]]]})
    with pytest.raises(ValueError, match="rows of 'vectors'"):
        frame_from_dict({"dim": 3, "vectors": [[[1.0, 0.0], [0.0, 0.0]]]})


def test_boolean_counts_rejected():
    # JSON true is a Python bool, which isinstance(..., int) would accept as 1
    with pytest.raises(ValueError, match="'dim' must be a positive integer, got True"):
        frame_from_dict({"dim": True, "vectors": [[[1.0, 0.0]], [[0.5, 0.0]]]})
    with pytest.raises(ValueError, match="'M' must be a positive integer, got True"):
        admissibility_query_from_dict({"a": [1.0, 0.5], "M": True})


def test_ragged_rows_rejected():
    with pytest.raises(ValueError, match="expected"):
        lists_to_complex_array([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], "rows")


def test_projection_roundtrip():
    p = projection_from_frame(harmonic_frame(2, 5))
    d = projection_to_dict(p)
    assert d["size"] == 5 and d["rank"] == 2
    q = projection_from_dict(d)
    assert hs_norm(q.matrix - p.matrix) <= 1e-12


def test_projection_dict_consistency_checks():
    p = projection_from_frame(harmonic_frame(2, 5))
    d = projection_to_dict(p)
    d["rank"] = 3
    with pytest.raises(ValueError, match="rank"):
        projection_from_dict(d)


@pytest.mark.parametrize("field,value", [("rank", True), ("size", 3.0)])
def test_projection_dict_rejects_non_integer_size_and_rank(field, value):
    d = projection_to_dict(projection_from_frame(harmonic_frame(1, 3)))
    d[field] = value
    with pytest.raises(ValueError, match=f"'{field}' must be a positive integer, got {value!r}"):
        projection_from_dict(d)


def test_admissibility_query_parsing():
    seq, spec = admissibility_query_from_dict({"a": [1.0, 0.5], "M": 1})
    assert spec is None
    assert seq.target_dim == 1
    seq, spec = admissibility_query_from_dict({"a": [1.0, 1.0, 1.0], "M": 2, "lambda": [2.0, 1.0]})
    assert spec is not None and len(spec) == 2
    with pytest.raises(ValueError, match="missing field 'M'"):
        admissibility_query_from_dict({"a": [1.0]})


# The per-entry encoder and decoder that the one-pass versions replace; the
# one-pass versions must reproduce them bit for bit.
def loop_encode(a):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a)]


def loop_decode(rows):
    return np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=np.complex128)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1, -7, 2**53 + 1, 2**64 + 1]


def random_rows(seed):
    """Nested [re, im] lists of a random (N, M) array whose scalars mix
    Gaussian floats, Python ints, signed zeros, subnormals and the ends of
    the float range."""
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(1, 12, size=2))
    rows = rng.standard_normal((n, m, 2)).tolist()
    for row in rows:
        for entry in row:
            for k in range(2):
                draw = rng.random()
                if draw < 0.2:
                    entry[k] = SPECIAL[rng.integers(len(SPECIAL))]
                elif draw < 0.4:
                    entry[k] = int(rng.integers(-1000, 1000))
    return rows


@pytest.mark.parametrize("seed", range(20))
def test_decode_equals_per_entry_loop_bit_for_bit(seed):
    rows = random_rows(seed)
    # through JSON, as the CLI reads it: ints stay ints, -0.0 stays -0.0
    rows = json.loads(json.dumps(rows))
    a = lists_to_complex_array(rows, "v")
    b = loop_decode(rows)
    assert a.dtype == np.complex128 and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_encode_equals_per_entry_loop(seed):
    rng = np.random.default_rng(seed)
    a = lists_to_complex_array(random_rows(seed), "v")
    assert json.dumps(complex_array_to_lists(a)) == json.dumps(loop_encode(a))
    f = random_parseval(int(rng.integers(1, 5)), int(rng.integers(5, 10)), seed)
    expected = {"dim": f.dim, "vectors": loop_encode(f.vectors)}
    assert json.dumps(frame_to_dict(f)) == json.dumps(expected)


def test_encode_keeps_signed_zero_subnormals_and_range_ends():
    a = np.array([[complex(-0.0, 5e-324), 1e308 - 1e308j], [complex(0.0, -0.0), -5e-324 + 0j]])
    out = complex_array_to_lists(a)
    assert json.dumps(out) == json.dumps(loop_encode(a))
    assert json.dumps(out) == "[[[-0.0, 5e-324], [1e+308, -1e+308]], [[0.0, -0.0], [-5e-324, 0.0]]]"
    v = harmonic_frame(2, 4).vectors.copy()
    v[0, 1], v[3, 0] = -0.0, complex(5e-324, -0.0)
    f = Frame(v)
    assert json.dumps(frame_to_dict(f)) == json.dumps({"dim": 2, "vectors": loop_encode(v)})


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("reduce", [False, True])
def test_naimark_output_equals_per_entry_encoding(tmp_path, capsys, seed, reduce):
    # (2, 7) at even seeds, where --reduce takes the complement, and (4, 7)
    # at odd ones, where it keeps the frame
    f = random_parseval(2 + 2 * (seed % 2), 7, seed)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(frame_to_dict(f)))
    if reduce:
        assert cli.main(["naimark", str(path), "--reduce"]) == 0
        small, flag = reduce_to_small(frame_from_dict(json.loads(path.read_text())))
        expected = {"branch": flag, "frame": {"dim": small.dim, "vectors": loop_encode(small.vectors)}}
    else:
        assert cli.main(["naimark", str(path)]) == 0
        comp = naimark_complement(frame_from_dict(json.loads(path.read_text())))
        expected = {"dim": comp.dim, "vectors": loop_encode(comp.vectors)}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


# Malformed rows and the message suffix after the field name; the same
# wording and (i, j) positions as the per-entry decoder has always given.
MALFORMED = [
    (5, " must be a nonempty list of rows"),
    ([], " must be a nonempty list of rows"),
    ([[[True, 0.0]], [[1.0, 0.0]]], "[0][0] must be a two-element [re, im] array"),
    ([[[1.0, 0.0]], [[1.0, False]]], "[1][0] must be a two-element [re, im] array"),
    ([[[1.0, 0.0], ["1", 0.0]]], "[0][1] must be a two-element [re, im] array"),
    ([[[1.0, 0.0], "ab"]], "[0][1] must be a two-element [re, im] array"),
    ([[[1.0, 0.0]], [None]], "[1][0] must be a two-element [re, im] array"),
    ([[[1.0, None]]], "[0][0] must be a two-element [re, im] array"),
    ([[[1.0, 0.0]], [[1.0]]], "[1][0] must be a two-element [re, im] array"),
    ([[[1.0, 0.0], [1.0, 0.0, 0.0]]], "[0][1] must be a two-element [re, im] array"),
    ([[[1.0, 0.0]], [{"re": 1.0}]], "[1][0] must be a two-element [re, im] array"),
    ([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]], "[1] has 2 entries, expected 1"),
    ([[[1.0, 0.0]], []], "[1] must be a nonempty list"),
    ([[[1.0, 0.0]], {"a": [1.0, 0.0]}], "[1] must be a nonempty list"),
    ([[[1.0, 0.0]], "ab"], "[1] must be a nonempty list"),
    ([[[1.0, 0.0]], 3], "[1] must be a nonempty list"),
    ([[[1.0, 0.0]], [[10**400, 0]]], "[1][0] has an integer too large for a float"),
]


@pytest.mark.parametrize("rows,suffix", MALFORMED)
def test_malformed_rows_name_their_position(rows, suffix, tmp_path, capsys):
    with pytest.raises(ValueError) as err:
        frame_from_dict({"dim": 1, "vectors": rows})
    assert str(err.value) == "vectors" + suffix
    with pytest.raises(ValueError) as err:
        projection_from_dict({"size": 2, "rank": 1, "matrix": rows})
    assert str(err.value) == "matrix" + suffix
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "vectors": rows}))
    assert cli.main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: vectors{suffix}\n"
