"""Seedable generators for structured and adversarial metric instances.

Families: padded copies of a base space, two-valued random-graph metrics,
recursive metric compositions, the scaled product used for Lipschitz-quotient
lower bounds, hypercubes, stars, lacunary spaces, and generic random Euclidean
point clouds for testing.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import click
import numpy as np

from .core import (
    Equilateral,
    Lacunary,
    MetricSpace,
    Star,
    aspect_ratio,
    integer,
    realize_special,
)
from .embeddings import TABLE_ELEMENTS
from .errors import CapacityError, ParameterError, StructuralError
from .seeds import RngSeed, as_seed


def gen_padded_copies(X: MetricSpace, copies: int, beta: float | None = None) -> MetricSpace:
    """`copies` disjoint copies of X, all cross-copy distances equal to beta.

    beta defaults to diam(X), the smallest value keeping the result a metric.
    Point (x, i) maps to index i * |X| + x.
    """
    if copies < 1:
        raise ParameterError("copies must be >= 1")
    diam = X.diameter()
    if beta is None:
        beta = diam
    if beta < diam:
        raise ParameterError(f"beta = {beta} < diam(X) = {diam} breaks the triangle inequality")
    return MetricSpace(_block_matrix(np.full((copies, copies), float(beta)), [X.dist] * copies))


def _block_matrix(cross: np.ndarray, diagonal: list[np.ndarray]) -> np.ndarray:
    """Block i of the rows and j of the columns filled with cross[i, j], read off
    the upper triangle of cross, and diagonal[i] as the i-th diagonal block."""
    cross = np.array(cross, dtype=np.float64)
    lower = np.tril_indices(len(diagonal), -1)
    cross[lower] = cross.T[lower]
    sizes = [blk.shape[0] for blk in diagonal]
    d = np.repeat(np.repeat(cross, sizes, axis=0), sizes, axis=1)
    for lo, blk in zip(np.cumsum([0] + sizes[:-1]), diagonal):
        d[lo : lo + blk.shape[0], lo : lo + blk.shape[0]] = blk
    return d


def gen_random_graph_metric(n: int, q: float, seed=None) -> tuple[MetricSpace, list[tuple[int, int]]]:
    """Two-valued metric of a G(n, q) random graph: 1 on edges, 2 otherwise.

    Always a metric.  Returns the space and the sampled edge list.
    """
    if not (0 < q < 1):
        raise ParameterError("edge probability must be in (0, 1)")
    # one draw per pair i < j in row-major order: the same PCG64 doubles, in
    # the same order, as one rng.random() call per pair
    iu, ju = np.triu_indices(n, 1)
    hit = as_seed(seed).rng().random(iu.size) < q
    iu, ju = iu[hit], ju[hit]
    d = np.full((n, n), 2.0)
    d[iu, ju] = d[ju, iu] = 1.0
    np.fill_diagonal(d, 0.0)
    return MetricSpace(d), list(zip(iu.tolist(), ju.tolist()))


# ---------------------------------------------------------------------------
# Metric composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompositionTree:
    """Recursive description of a composed metric.

    Each point of the outer metric is replaced by a child, which is either a
    plain MetricSpace or another CompositionTree.  Within a child, distances
    are the child's own; across children, beta * gamma * d_outer, where
    gamma = max child diameter / min outer distance.
    """

    outer: MetricSpace
    children: tuple
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) != self.outer.n:
            raise StructuralError("need exactly one child per outer point")
        if self.beta < 0.5:
            raise ParameterError("beta must be >= 1/2")
        for c in self.children:
            if not isinstance(c, (MetricSpace, CompositionTree)):
                raise StructuralError("children must be MetricSpace or CompositionTree")

    @property
    def n(self) -> int:  # of its composed metric
        return sum(c.n for c in self.children)


@dataclass(frozen=True)
class CompositionRealization:
    """A composed metric together with the structure used to build it."""

    metric: MetricSpace
    tree: CompositionTree | None  # None for a leaf space
    gamma: float
    cross_multiplier: float  # beta*gamma, or 1 when gamma = 0 (all-singleton children)
    offsets: tuple[int, ...]  # start index of each child's points
    children: tuple["CompositionRealization", ...]

    @property
    def is_leaf(self) -> bool:
        return self.tree is None


def realize_composition(tree: CompositionTree) -> CompositionRealization:
    """Materialize a composition tree bottom-up."""
    reals = [
        CompositionRealization(c, None, 0.0, 1.0, (), ()) if isinstance(c, MetricSpace)
        else realize_composition(c)
        for c in tree.children
    ]
    sizes = [r.metric.n for r in reals]
    offsets = tuple(int(x) for x in np.cumsum([0] + sizes[:-1]))
    outer = tree.outer
    max_diam = max(r.metric.diameter() for r in reals)
    if outer.n >= 2:
        min_outer = outer.min_distance()
        gamma = max_diam / min_outer
    else:
        gamma = 0.0
    # gamma = 0 (all children single points) would collapse the matrix; use a
    # plain copy of the outer metric instead.
    cross = tree.beta * gamma if gamma > 0 else 1.0
    d = _block_matrix(cross * outer.dist, [r.metric.dist for r in reals])
    return CompositionRealization(MetricSpace(d), tree, gamma, cross, offsets, tuple(reals))


def gen_composition(tree: CompositionTree) -> MetricSpace:
    return realize_composition(tree).metric


def random_composition_tree(depth: int, seed=None, beta: float = 4.0) -> CompositionTree:
    """Random composition tree for testing: small equilateral-ish leaf spaces."""
    rng = as_seed(seed).rng()

    def rand_leaf() -> MetricSpace:
        n = int(rng.integers(2, 5))  # 2 to 4 points
        # aspect ratio <= 2: distances in [1, 2]
        pts = rng.uniform(1.0, 2.0, size=(n, n))
        d = np.maximum(pts, pts.T)
        np.fill_diagonal(d, 0.0)
        return MetricSpace(d)

    def build(level: int) -> CompositionTree | MetricSpace:
        if level >= depth:
            return rand_leaf()
        outer = rand_leaf()
        children = tuple(
            build(level + 1) if rng.random() < 0.7 else rand_leaf() for _ in range(outer.n)
        )
        return CompositionTree(outer, children, beta)

    top = build(0)
    if isinstance(top, MetricSpace):
        top = CompositionTree(top, tuple(MetricSpace(np.zeros((1, 1))) for _ in range(top.n)), beta)
    return top


def gen_lipcomp_product(
    X: MetricSpace, Y: MetricSpace, mu: float, theta: float, alpha: float
) -> MetricSpace:
    """Product Z = Y x [k] with level-scaled copies of Y and X-distances across.

    d((y, i), (z, j)) = mu^i * d_Y(y, z) if i = j, else theta * d_X(i, j),
    where k = |X| and levels are i = 1..k.  Requires mu > alpha * aspect(Y)
    and theta >= alpha * mu^k * diam(Y) / min d_X.
    """
    k = X.n
    if Y.n >= 2:
        if mu <= alpha * aspect_ratio(Y):
            raise ParameterError("mu must exceed alpha * aspect_ratio(Y)")
        if k >= 2 and theta < alpha * mu**k * Y.diameter() / X.min_distance():
            raise ParameterError("theta too small for the required separation")
    return MetricSpace(_block_matrix(theta * X.dist, [mu ** (i + 1) * Y.dist for i in range(k)]))


# ---------------------------------------------------------------------------
# Generic instances
# ---------------------------------------------------------------------------


def _squared_distances(pts: np.ndarray) -> np.ndarray:
    """The bits of ((pts[:, None] - pts[None]) ** 2).sum(axis=2) under
    O(n^2 + TABLE_ELEMENTS) memory.

    Below 8 coordinates numpy adds the terms in order, so they are summed one
    column at a time (two n x n matrices at the peak).  From 8 on numpy sums
    pairwise, and the broadcast itself runs a few rows at a time under
    TABLE_ELEMENTS entries of the rows x n x dim table, as in induced_metric.
    """

    def term(k):
        d = pts[:, k, None] - pts[None, :, k]
        return np.multiply(d, d, out=d)

    n, dim = pts.shape
    if 0 < dim < 8:
        acc = term(0)
        for k in range(1, dim):
            acc += term(k)
        return acc
    out = np.empty((n, n))
    step = max(1, TABLE_ELEMENTS // max(1, n * dim))
    for lo in range(0, n, step):
        out[lo : lo + step] = ((pts[lo : lo + step, None] - pts[None]) ** 2).sum(axis=2)
    return out


def gen_euclidean_cloud(n: int, seed=None, dim: int = 3) -> MetricSpace:
    """Uniform points in the unit cube with exact Euclidean distances.

    The workhorse "random metric" for tests and experiments: always exactly a
    metric, no repair step.  The squared distances are bitwise the n x n x dim
    broadcast's, built without it (_squared_distances), so the peak is two
    n x n matrices at any dim.
    """
    rng = as_seed(seed).rng()
    sq = _squared_distances(rng.uniform(size=(n, dim)))
    return MetricSpace(np.sqrt(sq, out=sq))


def hypercube_metric(d: int) -> MetricSpace:
    """Hamming metric on {0,1}^d (only sensible for small d: 4^d matrix entries)."""
    if d > 12:
        raise ParameterError("full hypercube matrices limited to d <= 12")
    pts = np.arange(2**d, dtype=np.uint32)
    x = np.bitwise_xor.outer(pts, pts)
    return MetricSpace(np.bitwise_count(x).astype(np.float64))


# ---------------------------------------------------------------------------
# Declared params, and INSTANCES: each instance family and its params, once
# ---------------------------------------------------------------------------


_REQUIRED = object()
_SIZE = click.IntRange(min=1)  # point counts and dimensions


def option(name: str, default=_REQUIRED, **kw) -> click.Option:
    """A declared param; required when it is given no default."""
    if default is _REQUIRED:
        return click.Option([name], required=True, **kw)
    return click.Option([name], default=default, show_default=True, **kw)


class _Floats(click.ParamType):
    name = "floats"

    def convert(self, value, param, ctx):
        return tuple(float(x) for x in value)


def resolve_params(owner: str, by_name: dict[str, click.Option], given: dict) -> dict:
    """`given` over the declared defaults, each value converted by its option in `by_name`.

    An unknown, missing or unconvertible param is a ParameterError naming
    `owner`, and so is a value of an integer param that is not a JSON
    integer (core.integer).  Null is a value only for a param whose default is null.
    """
    params = {k: o.default for k, o in by_name.items() if not o.required}
    if not given.keys() <= by_name.keys() <= given.keys() | params.keys():
        unknown = sorted(given.keys() - by_name.keys())
        missing = sorted(by_name.keys() - given.keys() - params.keys())
        raise ParameterError(f"{owner} takes params {sorted(by_name)}; unknown {unknown}, missing {missing}")
    for k, v in given.items():
        if v is None and not by_name[k].required and by_name[k].default is None:
            continue
        try:
            if isinstance(by_name[k].type, click.types.IntParamType):
                integer(v, k)  # click would truncate a float and read a bool as 0 or 1
            # convert, unlike calling the type, rejects None; click's BOOL
            # raises AttributeError on values that are neither bool nor str
            params[k] = by_name[k].type.convert(v, by_name[k], None)
        except (click.BadParameter, StructuralError, TypeError, ValueError, OverflowError,
                AttributeError) as exc:
            raise ParameterError(f"{owner}: bad {k!r} value {v!r} ({exc})") from exc
    return params


#: the most points realize_instance builds: 2^12, the largest hypercube_metric
#: takes, above the largest plan sizes run (hst at n = 2000)
MAX_POINTS = 4096


@dataclass(frozen=True)
class Instance:
    """One instance family, built by `build(seed, **params)` (build_instance).
    Its params are declared once, as click options, as in `cli.PIPELINES`;
    `points(params)` bounds the point count they give, and `model` is the core
    dataclass (Star, Lacunary, Equilateral) whose fields they are.
    """

    name: str
    build: Callable
    options: tuple[click.Option, ...]
    points: Callable[[dict], int]
    model: type | None = None
    by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "by_name", {o.name: o for o in self.options})

    def resolve(self, given: dict) -> dict:
        return resolve_params(f"instance variant {self.name!r}", self.by_name, given)


def _model(cls, points, *options: click.Option) -> Instance:
    return Instance(cls.__name__.lower(), lambda seed, **p: realize_special(cls(**p)), options, points, cls)


def _lipcomp(seed, k, yn, alpha):
    X = gen_euclidean_cloud(k, seed.child(0))
    Y = gen_euclidean_cloud(yn, seed.child(1))
    mu = alpha * aspect_ratio(Y) * 1.01
    theta = alpha * mu**X.n * Y.diameter() / X.min_distance()
    return gen_lipcomp_product(X, Y, mu, theta, alpha)


INSTANCES = {i.name: i for i in (
    Instance("padded", lambda seed, base_n, copies, beta:
             gen_padded_copies(gen_euclidean_cloud(base_n, seed), copies, beta),
             (option("--base-n", 4, type=_SIZE), option("--copies", type=_SIZE),
              option("--beta", None, type=float)), lambda p: p["base_n"] * p["copies"]),
    Instance("gnp", lambda seed, n, q: gen_random_graph_metric(n, q, seed)[0],
             (option("--n", type=_SIZE), option("--q", type=float)), lambda p: p["n"]),
    # a tree, which realize_instance composes: up to 4 children per outer point, 4 points per leaf
    Instance("composition", lambda seed, depth, beta: random_composition_tree(depth, seed, beta=beta),
             (option("--depth", 2), option("--beta", 4.0)), lambda p: 4 ** (min(p["depth"], 64) + 1)),
    Instance("lipcomp", _lipcomp,
             (option("--k", 3, type=_SIZE), option("--yn", 3, type=_SIZE), option("--alpha", 1.5)),
             lambda p: p["k"] * p["yn"]),
    Instance("cube", lambda seed, d: hypercube_metric(d), (option("--d", type=click.IntRange(min=0)),),
             lambda p: 2 ** min(p["d"], 64)),
    _model(Star, lambda p: p["n"] + 1, option("--n", type=_SIZE), option("--tau", Star.tau)),
    _model(Lacunary, lambda p: len(p["a"]) + 1, option("--a", type=_Floats()), option("--k", Lacunary.k)),
    _model(Equilateral, lambda p: p["n"], option("--n", type=_SIZE), option("--edge", Equilateral.edge)),
    Instance("cloud", lambda seed, n, dim: gen_euclidean_cloud(n, seed, dim),
             (option("--n", type=_SIZE), option("--dim", 3, type=_SIZE)), lambda p: p["n"]),
)}


@dataclass(frozen=True)
class InstanceSpec:
    variant: str
    params: dict
    seed: RngSeed


def resolve_instance(spec: InstanceSpec) -> tuple[Instance, dict]:
    """The INSTANCES entry of `spec` and its params resolved against it; builds nothing."""
    inst = INSTANCES.get(spec.variant)
    if inst is None:
        raise ParameterError(f"unknown instance variant {spec.variant!r}")
    return inst, inst.resolve(spec.params)


def build_instance(spec: InstanceSpec) -> MetricSpace | CompositionTree:
    """`spec` built from its params resolved against INSTANCES: a `composition`
    instance as its tree, any other as its metric.  Params that give more than
    MAX_POINTS points raise CapacityError before anything is built."""
    inst, params = resolve_instance(spec)
    points = inst.points(params)
    if points > MAX_POINTS:
        raise CapacityError(f"instance {spec.variant!r} would have {points} points; the cap is {MAX_POINTS}")
    return inst.build(spec.seed, **params)


def realize_instance(spec: InstanceSpec) -> MetricSpace:
    """The metric of `spec` (build_instance), a composition tree composed."""
    built = build_instance(spec)
    return gen_composition(built) if isinstance(built, CompositionTree) else built
