"""Finite metric spaces: representation, validation, and elementary functionals.

A metric space is an n x n symmetric matrix of nonnegative floats with zero
diagonal, positive off-diagonal entries, and the triangle inequality holding
within an additive tolerance (needed because many of our metrics are computed,
not given).  Points are identified by index; labels are cosmetic.
"""

from __future__ import annotations

import binascii
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .errors import StructuralError, UndefinedInputError

#: Additive tolerance for all metric checks on 64-bit floats.
TOL = 1e-9


@dataclass(frozen=True)
class MetricSpace:
    """An n-point metric given by its full distance matrix."""

    dist: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if np.iscomplexobj(self.dist):
            raise StructuralError("distance matrix must be real")
        d = np.asarray(self.dist, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise StructuralError(f"distance matrix must be square, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise StructuralError("distance matrix contains non-finite entries")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != d.shape[0]:
                raise StructuralError("label count does not match point count")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n > 1 else 0.0

    def min_distance(self) -> float:
        """Smallest off-diagonal distance."""
        if self.n < 2:
            raise UndefinedInputError("min_distance needs at least 2 points")
        # a view: after d[0, 0], each run of n + 1 entries ends on the diagonal
        off = self.dist.ravel()[1:].reshape(self.n - 1, self.n + 1)[:, :-1]
        return float(off.min())

    def restrict(self, points) -> "MetricSpace":
        """Induced subspace on the given point indices, in the given order."""
        idx = list(points)
        if len(idx) == 0:
            raise UndefinedInputError("cannot restrict to an empty point set")
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[i] for i in idx)
        return MetricSpace(self.dist[np.ix_(idx, idx)], labels)


# ---------------------------------------------------------------------------
# Special metric families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Star:
    """Star metric: a root at distance 1 from ``n`` leaves, leaves pairwise at ``tau``."""

    n: int
    tau: float = 2.0


@dataclass(frozen=True)
class Lacunary:
    """Metric on len(a)+1 points with d(i, j) = a[i] for i < j (0-based).

    The sequence must be nonincreasing with a[i+1] <= a[i]/k.
    """

    a: tuple[float, ...]
    k: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))


@dataclass(frozen=True)
class Equilateral:
    """All pairwise distances equal to ``edge``."""

    n: int
    edge: float = 1.0


SpecialMetric = Star | Lacunary | Equilateral


def realize_special(s: SpecialMetric) -> MetricSpace:
    """Materialize a special metric family member as a MetricSpace."""
    if isinstance(s, Star):
        if s.n < 1:
            raise StructuralError("star needs at least one leaf")
        if not (0.0 < s.tau <= 2.0):
            raise StructuralError(f"star leaf distance must be in (0, 2], got {s.tau}")
        d = np.full((s.n + 1, s.n + 1), s.tau)
        d[0, :] = 1.0
        d[:, 0] = 1.0
        np.fill_diagonal(d, 0.0)
        return MetricSpace(d)
    if isinstance(s, Lacunary):
        a = np.asarray(s.a, dtype=np.float64)
        if a.size < 1 or np.any(a <= 0):
            raise StructuralError("lacunary sequence must be nonempty and positive")
        if np.any(a[1:] > a[:-1] / s.k + TOL):
            raise StructuralError(f"sequence is not {s.k}-lacunary")
        n = a.size + 1
        d = np.zeros((n, n))
        for i in range(n - 1):
            d[i, i + 1 :] = a[i]
            d[i + 1 :, i] = a[i]
        return MetricSpace(d)
    if isinstance(s, Equilateral):
        if s.n < 1 or s.edge <= 0:
            raise StructuralError("equilateral needs n >= 1 and edge > 0")
        d = np.full((s.n, s.n), float(s.edge))
        np.fill_diagonal(d, 0.0)
        return MetricSpace(d)
    raise StructuralError(f"unknown special metric {s!r}")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    """List of invariant violations; empty iff the object is valid."""

    violations: list[tuple[str, tuple, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, where: tuple, detail: str):
        self.violations.append((kind, tuple(where), detail))

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(f"{k} at {w}: {msg}" for k, w, msg in self.violations)


def validate_metric(m: MetricSpace | np.ndarray) -> ValidationReport:
    """Check finiteness, symmetry, zero diagonal, positivity, and the triangle inequality.

    Every violated invariant is reported with the indices where it fails;
    non-finite entries are reported alone, as the other checks compare through them.
    """
    d = m.dist if isinstance(m, MetricSpace) else np.asarray(m, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise StructuralError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    report = ValidationReport()

    nonfinite = ~np.isfinite(d)
    if nonfinite.any():
        for i, j in np.argwhere(nonfinite):
            report.add("finite", (int(i), int(j)), f"d = {d[i, j]!r} is not finite")
        return report

    bad = np.flatnonzero(np.abs(np.diag(d)) > TOL)
    for i in bad:
        report.add("diagonal", (int(i),), f"d(i,i) = {d[i, i]!r} != 0")

    asym = np.argwhere(np.abs(d - d.T) > TOL)
    for i, j in asym:
        if i < j:
            report.add("symmetry", (int(i), int(j)), f"{d[i, j]!r} != {d[j, i]!r}")

    nonpos = np.argwhere(d <= TOL)
    for i, j in nonpos:
        if i < j:
            report.add("positivity", (int(i), int(j)), f"d = {d[i, j]!r} <= 0 off-diagonal")

    # Triangle inequality: for each middle point j, d[i,k] <= d[i,j] + d[j,k].
    # Fast path: with every off-diagonal entry above 1e-8 (scipy reads a dense
    # entry within 1e-8 of 0 as "no edge"), the shortest-path closure c has
    # c[i,k] <= d[i,j] + d[j,k] in rounded arithmetic, so d - c <= TOL rules
    # out every slack above TOL.  When the O(n^2) row-minimum test of
    # _closure_is_identity holds, c is d itself, exactly, so the O(n^3)
    # closure is skipped with the same answer.
    if report.ok and (_closure_is_identity(d) or (d + np.diag(np.full(n, np.inf))).min() > 1e-8
                      and np.all(d - csgraph.floyd_warshall(d, directed=True) <= TOL)):
        return report
    for j in range(n):
        slack = d - (d[:, j][:, None] + d[j][None, :])
        viol = np.argwhere(slack > TOL)
        for i, k in viol:
            if i != j and k != j and i < k:
                report.add(
                    "triangle",
                    (int(i), int(j), int(k)),
                    f"d(i,k) = {d[i, k]!r} > {d[i, j] + d[j, k]!r}",
                )
    return report


def _closure_is_identity(w: np.ndarray) -> bool:
    """Whether the shortest-path closure of the square matrix w is w itself,
    by an O(k^2) test that is sufficient only.

    It holds for a zero diagonal, positive off-diagonal entries (scipy reads
    a 0 as "no edge") and w[i,k] <= r_i + c_k in float64 for all i != k, r_i
    and c_k the least off-diagonal entries of row i and column k.  Rounding is
    monotone, so fl(w[i,j] + w[j,k]) >= fl(r_i + c_k) >= w[i,k]: no
    Floyd-Warshall relaxation fires and the closure returns w bit for bit.
    """
    if np.any(np.diag(w) != 0):
        return False
    if w.shape[0] < 2:
        return True
    off = w.copy()
    np.fill_diagonal(off, np.inf)
    r, c = off.min(axis=1), off.min(axis=0)
    return bool(r.min() > 0 and np.all(w <= r[:, None] + c))


# ---------------------------------------------------------------------------
# Elementary functionals
# ---------------------------------------------------------------------------


def aspect_ratio(m: MetricSpace) -> float:
    """Diameter over the minimum off-diagonal distance (>= 1).

    Undefined, and refused with UndefinedInputError, below 2 points or when
    two points are at distance 0.
    """
    if m.n < 2:
        raise UndefinedInputError("aspect ratio needs at least 2 points")
    least = m.min_distance()
    if least <= 0:
        raise UndefinedInputError(f"aspect ratio needs positive distances; the smallest is {least!r}")
    return m.diameter() / least


def nearest_radii(m: MetricSpace) -> np.ndarray:
    """Vector of nearest-neighbor distances for every point."""
    if m.n < 2:
        raise UndefinedInputError("nearest_radii needs at least 2 points")
    d = m.dist + np.diag(np.full(m.n, np.inf))
    return d.min(axis=1)


def block_reduce(dist, blocks, inner=np.minimum, outer=None) -> np.ndarray:
    """Reduce a pair matrix over every pair of blocks.

    out[i, j] = outer over x in block i of (inner over y in block j of
    dist[x, y]); outer defaults to inner.  (min, min) gives set distances,
    (min, max) one-sided Hausdorff distances, and (or, and) on a boolean
    matrix says whether every point of block i sees block j.  Blocks need not
    cover or be ordered; one gather into block order, then one ``reduceat``
    per axis.
    """
    outer = inner if outer is None else outer
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    if np.any(sizes == 0):
        raise StructuralError("block_reduce needs nonempty blocks")
    order = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.intp, count=int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    sub = np.asarray(dist)[np.ix_(order, order)]
    return outer.reduceat(inner.reduceat(sub, starts, axis=1), starts, axis=0)


# ---------------------------------------------------------------------------
# Declared documents: each stored field has one reader, (value, path) -> value,
# which raises StructuralError naming the field's path
# ---------------------------------------------------------------------------


def _shown(value) -> str:
    text = type(value).__name__ if isinstance(value, (dict, list)) else repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def integer(value, path: str, error: type = StructuralError) -> int:
    """A JSON integer: not a bool and not a float, 3.0 included."""
    if type(value) is not int:
        raise error(f"declared {path} {_shown(value)} is not an integer")
    return value


def _shape(value, path: str) -> list:
    if type(value) is not list or not all(type(s) is int and s >= 0 for s in value):
        raise StructuralError(f"declared {path} {_shown(value)} is not a list of sizes")
    return value


def number(value, path: str) -> float:
    """A finite JSON number, as a float."""
    if type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not float or not math.isfinite(value):
        raise StructuralError(f"declared {path} {_shown(value)} is not a finite number")
    return value


def text(value, path: str) -> str:
    if type(value) is not str:
        raise StructuralError(f"declared {path} {_shown(value)} is not a string")
    return value


def one_of(*choices: str):
    def read(value, path: str) -> str:
        if type(value) is not str or value not in choices:
            raise StructuralError(f"unknown {path} {_shown(value)}; expected one of {list(choices)}")
        return value
    read.choices = choices
    return read


def list_of(item):
    def read(value, path: str) -> list:
        if type(value) is not list:
            raise StructuralError(f"declared {path} {_shown(value)} is not a list")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return read


def array(kinds: str, ndim: int):
    """An encoded array (decode_array) of a dtype kind in `kinds` (f, i, c) with `ndim` axes."""
    def read(value, path: str) -> np.ndarray:
        a = decode_array(value, path)
        if a.dtype.kind not in kinds or a.ndim != ndim:
            what = " or ".join({"f": "real", "i": "integer", "c": "complex"}[k] for k in kinds)
            raise StructuralError(f"{path} must be {what} with {ndim} axes, got {a.dtype.str} {list(a.shape)}")
        return a
    return read


class Doc:
    """A JSON object of declared fields: `fields` maps each to (its reader,
    whether it is required); the `optional` ones may be absent or null.

    Called on a document, a Doc returns field -> value (None for an absent
    optional field), and refuses a non-object and an undeclared or missing
    field.  Read as a whole (path ""), a document of an artifact `kind` may
    also hold that kind, checked but not returned, and an integer `trial`.
    """

    def __init__(self, name: str, kind: str | None = None, optional=(), **readers):
        self.name, self.kind = name, kind
        self.fields = {k: (r, k not in optional) for k, r in readers.items()}
        self._whole = {**self.fields, "kind": (one_of(kind), False), "trial": (integer, False)}

    def __call__(self, doc, path: str = "") -> dict:
        if not isinstance(doc, dict):
            raise StructuralError(f"{path or 'the document'} must be {self.name}, got {type(doc).__name__}")
        whole = not path and self.kind is not None
        fields, prefix = (self._whole if whole else self.fields), (f"{path}." if path else "")
        if not fields.keys() >= doc.keys():
            key = next(k for k in doc if k not in fields)
            raise StructuralError(f"undeclared {prefix}{key}: {self.name} stores no {key}")
        out = {}
        for key, (read, required) in fields.items():
            value = doc.get(key)
            if value is not None or required and key in doc:
                out[key] = read(value, prefix + key)
            elif required:
                raise StructuralError(f"required {prefix}{key} is missing")
            else:
                out[key] = None
        if whole:
            del out["kind"]
        return out


# ---------------------------------------------------------------------------
# Interchange formats
# ---------------------------------------------------------------------------


#: Stored dtype per numpy dtype kind: floats, signed ints and complex widen exactly.
_STORED = {"f": "<f8", "i": "<i8", "c": "<c16"}


def encode_array(a) -> dict:
    """An array as {"dtype", "shape", "b64"}: the base64 of its C-order
    little-endian bytes as <f8, <i8 or <c16 (artifact format 2).

    The round trip through decode_array is bit-exact, and equal arrays give
    equal documents.
    """
    a = np.asarray(a)
    dtype = _STORED.get(a.dtype.kind)
    if dtype is None:
        raise StructuralError(f"cannot store an array of dtype {a.dtype}")
    text = binascii.b2a_base64(np.ascontiguousarray(a, dtype=dtype), newline=False).decode("ascii")
    return {"dtype": dtype, "shape": list(a.shape), "b64": text}


_ENCODED = Doc("an encoded array {dtype, shape, b64} (artifact format 2)",
               dtype=one_of(*_STORED.values()), shape=_shape, b64=text)


def decode_array(doc, path: str = "array") -> np.ndarray:
    """The read-only array an encode_array document stores.

    Anything else raises StructuralError naming `path`: a document _ENCODED
    refuses (a JSON list, as format 1 stored arrays, an unknown dtype, a
    shape that is not a list of sizes), a byte count that does not match the
    shape, or base64 that is not exactly what encode_array writes (RFC 4648
    §3.5: only the standard alphabet, no whitespace or newlines, padding only
    at the end and only as much as the byte count needs, no unused low bits).
    The text is decoded in one pass; then only its length and its last quad
    are compared with the canonical encoding of the bytes, which together
    rule out any other text.
    """
    f = _ENCODED(doc, path)
    dtype, shape, b64 = f["dtype"], f["shape"], f["b64"]
    try:
        raw = binascii.a2b_base64(b64)  # skips characters outside the alphabet
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise StructuralError(f"{path} b64 is not valid base64 ({exc})") from exc
    # The canonical encoding of raw is as long as the text must be, and its
    # last quad fixes the padding.  Every byte takes 8 bits of 6-bit data
    # characters, so a text of that length and padding that held one skipped
    # character (outside the alphabet, or an "=" before the end) would decode
    # to fewer bytes than raw.  Hence the text before the last quad is all
    # data characters, in full quads that re-encode to themselves, and only
    # the last quad (extra padding, unused low bits) is left to compare.
    last = binascii.b2a_base64(raw[-(len(raw) % 3 or 3):], newline=False).decode("ascii")
    if len(b64) != (len(raw) + 2) // 3 * 4 or b64[-4:] != last:
        raise StructuralError(f"{path} b64 is not canonical base64")
    need = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != need:
        raise StructuralError(f"{path} holds {len(raw)} bytes; shape {shape} of {dtype} needs {need}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


#: a metric document: its point count, its distance matrix and, optionally,
#: one label per point
METRIC = Doc("a metric", kind="metric", n=integer, dist=array("f", 2), labels=list_of(text),
             optional={"labels"})


def metric_to_json(m: MetricSpace) -> dict:
    doc = {"n": m.n, "dist": encode_array(m.dist)}
    if m.labels is not None:
        doc["labels"] = list(m.labels)
    return doc


def metric_from_fields(f: dict) -> MetricSpace:
    """The metric of a document that METRIC has read."""
    m = MetricSpace(f["dist"], f["labels"])
    if f["n"] != m.n:
        raise StructuralError(f"declared n {f['n']} is not the matrix size {m.n}")
    return m


def metric_from_json(doc: dict) -> MetricSpace:
    return metric_from_fields(METRIC(doc))


def metric_to_csv(m: MetricSpace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in m.dist:
        writer.writerow([repr(float(x)) for x in row])
    return buf.getvalue()


def metric_from_csv(text: str) -> MetricSpace:
    rows = [
        [float(x) for x in row]
        for row in csv.reader(io.StringIO(text))
        if row and any(cell.strip() for cell in row)
    ]
    return MetricSpace(np.asarray(rows, dtype=np.float64))


def dumps(doc: dict) -> str:
    """Canonical JSON serialization: sorted keys, fixed separators.

    Used for every artifact so identical objects are byte-identical on disk.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
