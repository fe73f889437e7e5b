import binascii
import gc
import json
import math
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import floyd_warshall

from metriq import core
from metriq.core import (
    TOL,
    Equilateral,
    Lacunary,
    MetricSpace,
    Star,
    aspect_ratio,
    block_reduce,
    decode_array,
    dumps,
    encode_array,
    metric_from_csv,
    metric_from_json,
    metric_to_csv,
    metric_to_json,
    nearest_radii,
    realize_special,
    validate_metric,
)
from metriq.errors import StructuralError, UndefinedInputError

from conftest import (
    block_reduce_loop,
    decode_array_reencode,
    random_metric,
    shortest_path_closure,
    validate_metric_loop,
)


def test_metric_space_basics():
    m = MetricSpace([[0.0, 1.0], [1.0, 0.0]])
    assert m.n == 2
    assert m.d(0, 1) == 1.0
    assert m.diameter() == 1.0
    assert m.min_distance() == 1.0


def test_min_distance_is_the_masked_off_diagonal_min():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 17, 64):
        d = rng.uniform(1.0, 2.0, size=(n, n))  # asymmetric, diagonal below and above
        d[rng.integers(n), rng.integers(n)] = 0.5
        np.fill_diagonal(d, rng.uniform(0.0, 3.0, size=n))
        assert MetricSpace(d).min_distance() == float(d[~np.eye(n, dtype=bool)].min())


def test_metric_space_rejects_non_square():
    with pytest.raises(StructuralError):
        MetricSpace(np.zeros((2, 3)))


def test_metric_space_rejects_complex_entries():
    # a decoded <c16 matrix must not lose its imaginary part silently
    with pytest.raises(StructuralError, match="real"):
        MetricSpace(np.zeros((2, 2), dtype=np.complex128))


def test_metric_space_is_immutable():
    m = MetricSpace([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        m.dist[0, 1] = 5.0


def test_restrict_orders_points():
    m = random_metric(6, 0)
    sub = m.restrict([4, 1])
    assert sub.n == 2
    assert sub.d(0, 1) == m.d(4, 1)


def test_validate_metric_flags_each_violation():
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]])
    rep = validate_metric(d)
    kinds = {v[0] for v in rep.violations}
    assert kinds == {"triangle"}
    assert not rep.ok

    d = np.array([[0.5, 1.0], [1.0, 0.0]])
    assert {v[0] for v in validate_metric(d).violations} == {"diagonal"}

    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert "symmetry" in {v[0] for v in validate_metric(d).violations}

    d = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert {v[0] for v in validate_metric(d).violations} == {"positivity"}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_metric_reports_a_non_finite_entry(bad):
    d = random_metric(5, 0).dist.copy()
    d[1, 3] = bad
    assert [(kind, where) for kind, where, _ in validate_metric(d).violations] == [("finite", (1, 3))]


def test_validate_metric_accepts_clouds():
    for s in range(5):
        assert validate_metric(random_metric(10, s)).ok


@st.composite
def near_metrics(draw):
    """Clouds or integer points on a line (many exact ties in the triangle
    inequality), then one kind of damage: tol-level noise, a zero, a negative
    or asymmetric entry, a stretched pair or a nonzero diagonal."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        d = random_metric(n, int(rng.integers(0, 2**31))).dist.copy()
    else:
        x = rng.integers(0, 3 * n, size=n).astype(float)
        d = np.abs(x[:, None] - x[None, :])
    iu = np.triu_indices(n, k=1)
    damage = draw(st.sampled_from(["none", "noise", "noise-asym", "zero", "negative",
                                   "asymmetric", "stretch", "diagonal"]))
    if damage in ("noise", "noise-asym"):
        noise = rng.integers(-3, 4, size=(n, n)) * (TOL / 2)
        if damage == "noise":
            noise = np.triu(noise, 1) + np.triu(noise, 1).T
        np.fill_diagonal(noise, 0.0)
        d = d + noise
    elif damage == "diagonal":
        d[np.diag_indices(n)] = rng.integers(0, 4, size=n) * TOL
    elif iu[0].size:
        k = int(rng.integers(0, iu[0].size))
        i, j = int(iu[0][k]), int(iu[1][k])
        if damage == "zero":
            d[i, j] = d[j, i] = 0.0
        elif damage == "negative":
            d[i, j] = d[j, i] = -float(rng.uniform(0.0, 2.0))
        elif damage == "asymmetric":
            d[j, i] = d[i, j] * float(rng.uniform(0.5, 2.0))
        elif damage == "stretch":
            d[i, j] = d[j, i] = d[i, j] * float(rng.uniform(1.5, 3.0))
    return d


@settings(max_examples=300, deadline=None)
@given(near_metrics())
@example(np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 1.0], [5.0, 1.0, 0.0]]))
# d(0, 2) = 1.5e-9 is positive, but scipy's closure reads it as no edge
@example(np.array([[0.0, 3.0000000015, 1.5e-9], [3.0000000015, 0.0, 2.9999999985],
                   [1.5e-9, 2.9999999985, 0.0]]))
def test_validate_metric_matches_the_triple_loop(d):
    # the closure fast path must never hide a violation the loop reports
    assert validate_metric(d).violations == validate_metric_loop(d).violations


def test_validate_metric_zero_entry_is_no_shortcut():
    # scipy reads the 0 as a missing edge, so the closure check alone would pass
    d = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    kinds = [(kind, where) for kind, where, _ in validate_metric(d).violations]
    assert kinds == [("positivity", (0, 1)), ("triangle", (0, 1, 2))]


@st.composite
def closure_cases(draw):
    """Square matrices around the edge of the closure-identity test: random
    weights, symmetric or with asymmetric tol-level noise, 1/2-valued, in a
    band [lo, 2 lo], or a cloud with tol-level noise; then maybe one pair set
    to exactly r_i + c_k, one off-diagonal 0 or a tiny negative diagonal."""
    k = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "one-two", "band", "cloud"]))
    if kind == "random":
        w = rng.uniform(0.1, 3.0, size=(k, k))
    elif kind == "one-two":
        w = rng.integers(1, 3, size=(k, k)).astype(float)
    elif kind == "band":
        lo = float(rng.uniform(0.1, 10.0))
        w = rng.choice([lo, 2 * lo, float(rng.uniform(lo, 2 * lo))], size=(k, k))
    else:
        w = random_metric(k, int(rng.integers(0, 2**31))).dist.copy()
    w = np.triu(w, 1) + np.triu(w, 1).T
    if kind == "cloud" or draw(st.booleans()):
        noise = rng.integers(-2, 3, size=(k, k)) * (TOL / 2)
        w += noise if draw(st.booleans()) else np.triu(noise, 1) + np.triu(noise, 1).T
    np.fill_diagonal(w, 0.0)
    edit = draw(st.sampled_from(["none", "boundary", "zero", "diagonal"]))
    i, j = sorted(int(x) for x in rng.choice(k, size=2, replace=False)) if k > 1 else (0, 0)
    if edit == "boundary" and k > 2:
        # the least entries of row i and column j leaving out (i, j) itself
        others = [x for x in range(k) if x not in (i, j)]
        w[i, j] = w[j, i] = w[i, others].min() + w[others, j].min()
    elif edit == "zero" and k > 1:
        w[i, j] = w[j, i] = 0.0
    elif edit == "diagonal":
        w[i, i] = -TOL / 4
    return w


_AT_THE_BOUNDARY = np.array([[0.0, 0.1, 0.1 + 0.2], [0.1, 0.0, 0.2], [0.1 + 0.2, 0.2, 0.0]])


@settings(max_examples=500, deadline=None)
@given(closure_cases())
@example(_AT_THE_BOUNDARY)
@example(np.array([[0.0]]))
@example(np.array([[0.0, 2.0], [1.0, 0.0]]))
def test_closure_identity_test_is_exact(w):
    identity = core._closure_is_identity(w)
    if identity:
        assert floyd_warshall(w, directed=True).tobytes() == w.tobytes()
        if np.array_equal(w, w.T):
            assert floyd_warshall(w, directed=False).tobytes() == w.tobytes()
        assert np.asarray(shortest_path_closure(w)).tobytes() == w.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_closure_is_identity", lambda w: False)
        unaided = validate_metric(w)
    assert validate_metric(w).violations == unaided.violations


def test_closure_identity_test_edge_cases():
    assert core._closure_is_identity(_AT_THE_BOUNDARY)
    over = _AT_THE_BOUNDARY.copy()
    over[0, 2] = over[2, 0] = np.nextafter(over[0, 2], np.inf)
    assert not core._closure_is_identity(over)  # the closure takes the detour
    assert floyd_warshall(over, directed=False)[0, 2] == 0.1 + 0.2
    assert core._closure_is_identity(np.zeros((1, 1)))
    assert core._closure_is_identity(np.array([[0.0, 5.0], [5.0, 0.0]]))
    band = np.full((4, 4), 2.0)
    band[0, 1] = band[1, 0] = 1.0
    np.fill_diagonal(band, 0.0)
    assert core._closure_is_identity(band)  # aspect ratio 2
    zero = band.copy()
    zero[2, 3] = zero[3, 2] = 0.0
    assert not core._closure_is_identity(zero)  # scipy reads the 0 as "no edge"
    tilted = band.copy()
    tilted[1, 1] = -TOL / 4
    assert not core._closure_is_identity(tilted)  # scipy's closure zeroes the diagonal
    assert validate_metric(tilted).ok


def test_star_realization():
    m = realize_special(Star(3, 1.5))
    assert m.n == 4
    assert np.all(m.dist[0, 1:] == 1.0)
    off = m.dist[1:, 1:][~np.eye(3, dtype=bool)]
    assert np.all(off == 1.5)
    with pytest.raises(StructuralError):
        realize_special(Star(3, 2.5))  # violates the triangle through the root


def test_lacunary_realization():
    m = realize_special(Lacunary((4.0, 2.0, 1.0), 2.0))
    assert m.n == 4
    assert m.d(0, 3) == 4.0 and m.d(1, 2) == 2.0 and m.d(2, 3) == 1.0
    assert validate_metric(m).ok
    with pytest.raises(StructuralError):
        realize_special(Lacunary((4.0, 3.0), 2.0))  # ratio only 4/3


def test_equilateral_realization():
    m = realize_special(Equilateral(5, 2.5))
    off = m.dist[~np.eye(5, dtype=bool)]
    assert np.all(off == 2.5)


def test_aspect_ratio_and_radii():
    m = MetricSpace([[0, 1, 4], [1, 0, 4], [4, 4, 0]])
    assert aspect_ratio(m) == 4.0
    assert np.array_equal(nearest_radii(m), [1.0, 1.0, 4.0])


@st.composite
def blocked_matrices(draw):
    """A square matrix with ties, and disjoint blocks in a random order.

    Shapes: a random partition, all singletons, one block, or one big block
    beside singletons; blocks may leave points uncovered.
    """
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dist = rng.integers(-3, 4, size=(n, n)).astype(np.float64)
    else:
        dist = rng.uniform(-1e3, 1e3, size=(n, n))
    perm = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(["random", "singletons", "one", "unequal"]))
    if shape == "random":
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = [tuple(p for p, lab in zip(perm, labels) if lab == u) for u in dict.fromkeys(labels)]
    elif shape == "singletons":
        blocks = [(p,) for p in perm]
    elif shape == "one":
        blocks = [tuple(perm)]
    else:
        big = draw(st.integers(1, n))
        blocks = [tuple(perm[:big])] + [(p,) for p in perm[big:]]
    keep = draw(st.integers(1, len(blocks)))
    return dist, blocks[:keep]


@pytest.mark.parametrize(
    "inner, outer",
    [(np.minimum, np.minimum), (np.minimum, np.maximum), (np.logical_or, np.logical_and)],
)
@settings(max_examples=200, deadline=None)
@given(case=blocked_matrices())
def test_block_reduce_matches_pair_loop(inner, outer, case):
    dist, blocks = case
    if inner is np.logical_or:
        dist = dist > 0
    got = block_reduce(dist, blocks, inner, outer)
    want = block_reduce_loop(dist, blocks, inner, outer)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_block_reduce_rejects_empty_block():
    d = random_metric(4, 0).dist
    with pytest.raises(StructuralError):
        block_reduce(d, [(0, 1), ()])
    with pytest.raises(StructuralError):
        block_reduce(d, [(), (2,)], np.minimum, np.maximum)


def test_json_round_trip():
    m = random_metric(7, 3)
    m2 = metric_from_json(metric_to_json(m))
    assert np.array_equal(m.dist, m2.dist)


# --- artifact format 2: the array codec --------------------------------------

_SHAPES = st.one_of(
    st.just((0,)),
    st.tuples(st.integers(1, 12)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.tuples(st.integers(0, 6), st.just(0)),
)


@st.composite
def raw_arrays(draw):
    """Arrays of every bit pattern: NaN payloads, subnormals, -0.0, int64 extremes."""
    dtype = np.dtype(draw(st.sampled_from(["<f8", "<i8", "<c16"])))
    shape = draw(_SHAPES)
    size = math.prod(shape) * dtype.itemsize
    return np.frombuffer(draw(st.binary(min_size=size, max_size=size)), dtype=dtype).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(raw_arrays())
def test_encode_decode_is_bit_exact(a):
    doc = encode_array(a)
    assert doc["dtype"] == a.dtype.str and doc["shape"] == list(a.shape)
    back = decode_array(json.loads(dumps(doc)))
    assert back.dtype == a.dtype and back.shape == a.shape
    assert back.tobytes() == a.tobytes()
    assert encode_array(back) == doc


def test_encode_decode_special_values():
    nan_payload = np.array([0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64).view("<f8")
    floats = np.concatenate([[-0.0, 5e-324, 2.2e-308, np.inf, -np.inf], nan_payload])
    ints = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1])
    complexes = np.column_stack([floats, floats[::-1]]).view("<c16")  # no arithmetic on NaNs
    for a in (floats, ints, complexes, np.zeros((3, 0))):
        back = decode_array(encode_array(a))
        assert back.tobytes() == a.tobytes() and back.shape == a.shape


def test_encode_widens_exactly_and_refuses_other_kinds():
    assert decode_array(encode_array(np.arange(3, dtype=np.int32))).dtype == np.int64
    assert encode_array([0.1, 2.0])["dtype"] == "<f8"
    assert encode_array(np.array([1 + 2j], dtype=np.complex64))["dtype"] == "<c16"
    for bad in (np.array(["a"]), np.array([True]), np.array([1], dtype=np.uint8)):
        with pytest.raises(StructuralError):
            encode_array(bad)


_GOOD = {"dtype": "<f8", "shape": [1], "b64": "jZduEoPA8z8="}  # [1.2345]


@pytest.mark.parametrize("doc, match", [
    ([[0.0, 1.0], [1.0, 0.0]], "format 2"),
    ({**_GOOD, "dtype": "<f4"}, "dtype"),
    ({**_GOOD, "dtype": ">f8"}, "dtype"),
    ({**_GOOD, "shape": [2]}, "bytes"),
    ({**_GOOD, "shape": [1, 2]}, "bytes"),
    ({**_GOOD, "shape": 1}, "shape"),
    ({**_GOOD, "shape": [-1]}, "shape"),
    ({**_GOOD, "shape": [True]}, "shape"),
    ({**_GOOD, "b64": "jZduEoPA*z8="}, "base64"),
    ({**_GOOD, "b64": "jZduEoPA8z\u00e9="}, "base64"),
    ({**_GOOD, "b64": "jZduEoPA8z8=\n"}, "base64"),
    ({**_GOOD, "b64": "jZduEoPA8z8"}, "base64"),
    ({**_GOOD, "b64": "jZduEoPA"}, "bytes"),
    ({**_GOOD, "b64": "jZduEoPA8z9="}, "canonical"),
    ({**_GOOD, "b64": 5}, "string"),
    ({"shape": [1], "b64": "jZduEoPA8z8="}, "dtype"),
    ({"dtype": "<f8", "b64": "jZduEoPA8z8="}, "shape"),
    ({"dtype": "<f8", "shape": [1]}, "b64"),
], ids=["json-list", "dtype-f4", "dtype-big-endian", "size", "shape-size", "shape-int",
        "shape-negative", "shape-bool", "alphabet", "non-ascii", "newline", "truncated-pad",
        "truncated-item", "trailing-bits", "b64-type", "no-dtype", "no-shape", "no-b64"])
def test_decode_rejects(doc, match):
    assert decode_array(_GOOD)[0] == 1.2345
    with pytest.raises(StructuralError, match=match):
        decode_array(doc)


#: Every kind of character a b64 text could be damaged with.
_B64_CHARS = string.ascii_letters + string.digits + "+/=" + " \t\r\n-_\x00\u00e9\u20ac"


@st.composite
def mutated_encodings(draw):
    """The canonical encoding of 0-24 random bytes with up to three characters
    replaced, inserted or deleted, at the end and as "=" more often than not."""
    text = list(binascii.b2a_base64(draw(st.binary(max_size=24)), newline=False).decode())
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        end = len(text) if op == "insert" else max(len(text) - 1, 0)
        i = draw(st.one_of(st.just(end), st.integers(0, len(text))))
        if op == "insert":
            text.insert(i, draw(st.one_of(st.just("="), st.sampled_from(_B64_CHARS))))
        elif i < len(text):
            if op == "replace":
                text[i] = draw(st.sampled_from(_B64_CHARS))
            else:
                del text[i]
    return "".join(text)


def _decode_outcome(decode, text):
    """The bytes decode reads from text, or whether it refused the base64
    itself (True) or only the byte count (False)."""
    try:
        size = len(binascii.a2b_base64(text)) // 8
    except ValueError:
        size = 0
    try:
        return decode({"dtype": "<f8", "shape": [size], "b64": text}).tobytes()
    except StructuralError as exc:
        return "base64" in str(exc)


@settings(max_examples=1500, deadline=None)
@given(st.one_of(st.text(_B64_CHARS, max_size=16), mutated_encodings()))
@example("jZduEoPA8z9=")  # stray trailing bits
@example("AAAAAAAAAAA=")
@example("AAAAAAAAAAAA=")  # padding after a full last quad
@example("")
def test_decode_array_matches_the_reencode_oracle(text):
    assert _decode_outcome(decode_array, text) == _decode_outcome(decode_array_reencode, text)


def test_csv_round_trip_is_exact():
    m = random_metric(5, 4)
    m2 = metric_from_csv(metric_to_csv(m))
    assert np.array_equal(m.dist, m2.dist)


def test_dumps_is_canonical():
    a = dumps({"b": 1, "a": [1.5, 2]})
    b = dumps({"a": [1.5, 2], "b": 1})
    assert a == b == '{"a":[1.5,2],"b":1}'


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


#: Strings that json must escape, NULs and quotes among them, and strings
#: that look like the keys or payload of an encoded array.
_TRICKY = st.one_of(
    st.sampled_from(['"', "\\", '\\"', "\x00", "\x00\x00", "\x00\x00\x00", '"\x00', '"\x00\x00',
                     "a\x00", '\\u0000', '"\\u0000"', "\x1f\n\t\r\x7f", "\u00e9\u2028\U0001f600",
                     "b64", "dtype", "AAAA", "=="]),
    st.text(max_size=6),
)


@st.composite
def encoded_documents(draw):
    """encode_array documents as they are, or with "b64" replaced by another
    string, which dumps must escape."""
    doc = encode_array(draw(raw_arrays()))
    if draw(st.booleans()):
        doc["b64"] = draw(_TRICKY)
    return doc


#: JSON objects with arrays, strings and other values nested at any depth in
#: dicts, lists and tuples; many hold no array.
_DOCUMENTS = st.dictionaries(_TRICKY, st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TRICKY,
              encoded_documents()),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_TRICKY, kids, max_size=4)),
    max_leaves=12,
), max_size=5)


@settings(max_examples=500, deadline=None)
@given(_DOCUMENTS)
@example({})
@example({"z": [1, 2.5, None, True], "\x00": {"a": ['"\x00\x00', "\u00e9"]}, "b64": "AAAA"})
@example({"\x00": "\x00", "a": ['"\x00', encode_array([1.5])], "b64": encode_array([])})
@example({"b64": {"dtype": "<f8", "shape": [0], "b64": ""}, "x": (encode_array([[1, 2]]),)})
def test_dumps_is_json_dumps_byte_for_byte(doc):
    assert dumps(doc) == _canonical(doc)


def test_encode_array_documents_compare_as_plain_dicts():
    doc = encode_array([1.2345])
    assert doc == {"dtype": "<f8", "shape": [1], "b64": "jZduEoPA8z8="}
    assert json.loads(dumps(doc)) == doc
    doc["b64"] = 'jZduEoPA8z8="\\\n'
    assert dumps(doc) == _canonical(doc)


def test_dumps_refuses_what_json_refuses():
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        dumps({"a": encode_array([1.0]), "b": np.int64(3)})


def test_dumps_leaves_no_cyclic_garbage():
    from metriq.cli import plan_from_json, run_experiment

    plan = {"instance": {"variant": "cloud", "params": {"n": 120}}, "pipeline": "q2",
            "trials": 1, "seed": 5}
    bundle = run_experiment(plan_from_json(plan), keep_artifacts=True)
    doc = {"plan": bundle.plan, "rows": bundle.rows, "summary": bundle.summary,
           "artifacts": bundle.artifacts}
    gc.collect()
    gc.disable()
    try:
        text = dumps(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert text == _canonical(doc)


def test_single_point_undefined_functionals():
    m = MetricSpace(np.zeros((1, 1)))
    with pytest.raises(UndefinedInputError):
        m.min_distance()
    with pytest.raises(UndefinedInputError):
        aspect_ratio(m)
