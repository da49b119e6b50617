"""From-scratch classifiers: logistic regression, decision tree, random forest.

All three train on dense one-hot matrices (float64). No ML library calls;
NumPy supplies array math only.

Logistic regression is fitted by Newton/IRLS (Hastie, Tibshirani &
Friedman, The Elements of Statistical Learning, 4.4.1) with step
halving; `max_iters` counts Newton steps.

Determinism:
- logistic regression starts at zero, so it is seed-free;
- tree split ties break toward the lowest column index, then the lowest
  threshold;
- each forest tree derives its own generator from seed + tree_index, so
  serial and (hypothetical) parallel builds produce identical forests.

A decision tree is a forest of one (Breiman, Machine Learning 45, 2001),
grown without a bootstrap from every column: both kinds grow through one
grower and hold their trees in ``TrainedModel.trees``, one Trees object of
node arrays. Only their blobs differ, as format 1 always has: a decision
tree keeps its tree under "root", a forest its list under "trees".

Every fit runs on the distinct (row, label) pairs of its training matrix,
each with its count: one-hot rows repeat heavily, and Gini impurity and
log-loss depend only on weighted counts. A tree's sample, bootstrap or
whole, becomes each pair's count in it (a bootstrap sample is a vector of
row multiplicities), and a node scores all its sampled 0/1 columns with
one product of counts, as split search over aggregated statistics does in
XGBoost (Chen & Guestrin, KDD 2016). Split sums add integer-valued counts,
so they are exact in any order or BLAS split: trees come out node for node
as if grown row by row. The logistic fit sums the same terms in another
order, so its weights can move in the last digits (about 1e-8 on the
default data) with the row grouping or the BLAS thread count.

Prediction contract: predict_proba computes per-row values with
row-local arithmetic (no batch-shape-dependent reductions), so scoring
one record equals scoring it inside any batch, bit for bit. It scores
either one-hot rows or a batch held as FieldCodes, the category code of
each row in each one-hot field; both give the same score for the same
row, bit for bit.

Trees have one form: parallel node arrays in pre-order (scikit-learn's
tree_ layout, leaves pointing to themselves), which growth and loading
append to and which both scorers read. On one-hot rows, predict_proba
steps the (trees, rows) node matrix from the roots, every tree at once,
at most max_depth times (Hummingbird's tree traversal; Nakandala et al.,
OSDI 2020). On codes it scores with leaf bitmasks (QuickScorer: Lucchese
et al., SIGIR 2015; RapidScorer: Ye et al., KDD 2018), compiled once per
model object and field layout: a subtree's leaves are consecutive in
pre-order, and each field value keeps the mask of the leaves it leaves
reachable, so one gather per field and an AND leave each tree's leaf as
the one bit set. Either way the score is the mean of the leaf values
summed in tree order, so it is the same for one row as in any batch.
The masks are never serialized: model bytes are unchanged by them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DataError, SchemaMismatchError

LOGISTIC_DEFAULTS = {
    "tolerance": 1e-6,
    "max_iters": 100,  # Newton steps
    "l2": 0.0,
}
_ROW_BLOCK = 512  # distinct rows scaled or gathered at once: Hessian terms, split counts
_MAX_HALVINGS = 30  # a step cut 2**30 times that still raises the loss means the floor
TREE_DEFAULTS = {"max_depth": 12, "min_leaf": 5}
FOREST_DEFAULTS = {
    "n_trees": 50,
    **TREE_DEFAULTS,
    "features_per_split": None,  # None -> ceil(sqrt(width))
    "bootstrap": True,
}
# every model kind and its hyperparameter defaults, in training order
MODEL_KINDS = {
    "logistic_regression": LOGISTIC_DEFAULTS,
    "decision_tree": TREE_DEFAULTS,
    "random_forest": FOREST_DEFAULTS,
}
_TREE_KINDS = ("decision_tree", "random_forest")
# the least value of each numeric hyperparameter; a None features_per_split
# means ceil(sqrt(width))
_HYPER_MINIMUMS = {
    "tolerance": 0,
    "max_iters": 0,
    "l2": 0,
    "max_depth": 0,
    "min_leaf": 1,
    "n_trees": 1,
    "features_per_split": 1,
}

SERIALIZATION_FORMAT = 1
_PREDICT_BLOCK = 1024  # rows scored at once; bounds the (trees, rows) node matrix and leaf masks


@dataclass
class TrainedModel:
    kind: str
    width: int
    schema_hash: str
    train_seed: int
    hyperparameters: dict
    weights: Optional[np.ndarray] = None  # logistic
    bias: float = 0.0
    trees: Optional[Trees] = None  # a tree (one) or a forest
    loss_history: list[float] = field(default_factory=list, repr=False)
    n_iters: int = 0

    @functools.cached_property
    def _masks_by_sizes(self) -> dict:
        return {}

    def _leaf_masks(self, sizes: tuple[int, ...]) -> "_LeafMasks":
        """The trees compiled for scoring FieldCodes of these field sizes,
        once per model object and field layout."""
        masks = self._masks_by_sizes.get(sizes)
        if masks is None:
            masks = self._masks_by_sizes[sizes] = _compile_leaf_masks(self.trees, sizes)
        return masks


@dataclass(frozen=True)
class EvalMetrics:
    tn: int
    fp: int
    fn: int
    tp: int
    accuracy: float
    f1: float
    threshold: float


def check_hyperparameters(hyper: dict, prefix: str = "") -> None:
    """Raise ConfigError naming the first numeric hyperparameter of
    ``hyper`` below its least value (NaN included); ``prefix`` leads the
    key in the message."""
    for key, value in hyper.items():
        least = _HYPER_MINIMUMS.get(key)
        if least is not None and value is not None and not value >= least:
            raise ConfigError(f"{prefix}{key} must be >= {least}, not {value!r}")


def _merge_hyper(defaults: dict, overrides: dict | None) -> dict:
    merged = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown hyperparameter {key!r}")
        merged[key] = value
    check_hyperparameters(merged)
    return merged


def _distinct_rows(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal (row, label) pairs of a training set.

    Returns ``first``, one row index per group, and ``inverse``, each row's
    group, so ``X[first][inverse]`` equals ``X``. A lexsort over the label
    and the column views orders the rows; a row starts a group when it
    differs from its sorted neighbour in the label or in any column. No
    sorted or stacked copy of X is made. A row holding a NaN differs from
    every row, so it is a group of its own.
    """
    order = np.lexsort([y, *X.T])
    starts = np.empty(order.size, dtype=bool)
    starts[0] = True
    labels = y[order]
    starts[1:] = labels[1:] != labels[:-1]
    for c in range(X.shape[1]):
        col = X[order, c]
        starts[1:] |= col[1:] != col[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


class _Distinct(NamedTuple):
    """A training set as its distinct (row, label) pairs: row ``X[i]`` with
    label ``y[i]`` occurs ``counts[i]`` times (float64), and input row j is
    pair ``inverse[j]``."""

    X: np.ndarray
    y: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray


def _distinct_training_set(X, y) -> _Distinct:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("training set must be a non-empty 2-D matrix")
    if y.shape[0] != X.shape[0]:
        raise DataError("labels must align with the feature matrix")
    y = y.astype(np.float64)
    first, inverse = _distinct_rows(X, y)
    Xu = X[first]
    # every value of X is in Xu, so the distinct rows are all to check
    if not np.all(np.isfinite(Xu)):
        raise DataError("training matrix contains non-finite values")
    counts = np.bincount(inverse, minlength=first.size).astype(np.float64)
    return _Distinct(Xu, y[first], counts, inverse)


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _logistic_loss(X, y, counts, w, b, l2) -> float:
    """Mean log-loss over rows counted ``counts`` times, plus L2 on weights."""
    p = sigmoid(X @ w + b)
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    data = -((counts * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))).sum() / counts.sum())
    return float(data + 0.5 * l2 * float(np.dot(w, w)))


def _logistic_gradient(X, y, counts, w, b, l2) -> tuple[np.ndarray, float]:
    """Gradient of ``_logistic_loss`` over (weights, bias)."""
    residual = counts * (sigmoid(X @ w + b) - y)
    total = counts.sum()
    return X.T @ residual / total + l2 * w, float(residual.sum() / total)


def logistic_loss(X, y, w, b, l2=0.0) -> float:
    y = np.asarray(y)
    return _logistic_loss(np.asarray(X), y, np.ones(y.shape[0]), np.asarray(w), b, l2)


def logistic_gradient(X, y, w, b, l2=0.0) -> tuple[np.ndarray, float]:
    """Gradient of the mean log-loss (plus L2 on weights, not bias)."""
    y = np.asarray(y)
    return _logistic_gradient(np.asarray(X), y, np.ones(y.shape[0]), np.asarray(w), b, l2)


def _logistic_hessian(X, counts, w, b, l2) -> np.ndarray:
    """Hessian of ``_logistic_loss`` over (weights, bias), bias last.

    X^T S X is summed over row blocks, so the scaled copy of X is at most
    _ROW_BLOCK rows.
    """
    n, width = X.shape
    H = np.zeros((width + 1, width + 1), dtype=np.float64)
    for start in range(0, n, _ROW_BLOCK):
        block = X[start:start + _ROW_BLOCK]
        p = sigmoid(block @ w + b)
        s = p * (1.0 - p) * counts[start:start + _ROW_BLOCK]
        scaled = block * s[:, None]
        H[:width, :width] += scaled.T @ block
        H[:width, width] += scaled.sum(axis=0)
        H[width, width] += s.sum()
    H /= counts.sum()
    H[width, :width] = H[:width, width]
    H[np.arange(width), np.arange(width)] += l2  # the bias is not penalised
    return H


def train_logistic(
    X, y, hyperparameters: dict | None = None, schema_hash: str = ""
) -> TrainedModel:
    """Newton/IRLS from zero init, with step halving.

    Each step solves H d = g by least squares: the one-hot blocks plus the
    intercept are collinear, so H is singular on encoded data. The step is
    halved until the loss does not rise, so the loss history never goes
    up; when no halving keeps it from rising, the loss is at its floor and
    training stops. Otherwise it stops when the gradient max-norm drops
    below `tolerance` or after `max_iters` Newton steps. Records the loss
    after every step. Loss, gradient and Hessian are sums over the
    distinct (row, label) pairs, each weighted by its count.
    """
    hyper = _merge_hyper(LOGISTIC_DEFAULTS, hyperparameters)
    X, y, counts, _ = _distinct_training_set(X, y)
    tol = float(hyper["tolerance"])
    l2 = float(hyper["l2"])
    max_iters = int(hyper["max_iters"])

    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    losses = [_logistic_loss(X, y, counts, w, b, l2)]
    iters = 0
    for _ in range(max_iters):
        g_w, g_b = _logistic_gradient(X, y, counts, w, b, l2)
        g_max = max(float(np.max(np.abs(g_w))) if g_w.size else 0.0, abs(g_b))
        if g_max < tol:
            break
        H = _logistic_hessian(X, counts, w, b, l2)
        step = np.linalg.lstsq(H, np.append(g_w, g_b), rcond=None)[0]
        for halving in range(_MAX_HALVINGS + 1):
            scale = 0.5**halving
            w_new = w - scale * step[:-1]
            b_new = b - scale * float(step[-1])
            loss = _logistic_loss(X, y, counts, w_new, b_new, l2)
            if loss <= losses[-1]:
                break
        else:
            break
        w, b = w_new, b_new
        iters += 1
        losses.append(loss)
    if not np.all(np.isfinite(w)) or not math.isfinite(b):
        raise DataError("logistic training diverged to non-finite weights")
    return TrainedModel(
        kind="logistic_regression",
        width=X.shape[1],
        schema_hash=schema_hash,
        train_seed=0,
        hyperparameters=hyper,
        weights=w,
        bias=b,
        loss_history=losses,
        n_iters=iters,
    )


# ---------------------------------------------------------------------------
# decision trees and random forests
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trees:
    """The trees of one model as parallel node arrays, trees in order, each
    in pre-order: a node, its left subtree, then its right subtree.

    Node i sends a row left when ``row[feature[i]] < threshold[i]``, to
    ``children[2 * i]``, node i + 1, and right otherwise, to
    ``children[2 * i + 1]``. ``value[i]`` is its positive fraction and
    ``count[i]`` its rows. A leaf's children are the leaf itself, so a step
    keeps a row on its leaf; ``depth``, the deepest leaf's depth, is how
    many steps take every row to its leaf. ``trees[t]`` is tree t's root.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    value: np.ndarray
    count: np.ndarray
    roots: np.ndarray
    depth: int

    def __len__(self) -> int:
        return self.roots.size

    def __getitem__(self, t: int) -> Node:
        return Node(self, int(self.roots[t]))


class Node:
    """A read-only view of node ``i`` of ``trees``; on a leaf, ``column``,
    ``threshold``, ``left`` and ``right`` are None."""

    def __init__(self, trees: Trees, i: int):
        self._trees, self._i = trees, i

    is_leaf = property(lambda self: bool(self._trees.children[2 * self._i] == self._i))
    prob = property(lambda self: float(self._trees.value[self._i]))
    count = property(lambda self: int(self._trees.count[self._i]))
    column = property(lambda self: None if self.is_leaf else int(self._trees.feature[self._i]))
    threshold = property(lambda self: None if self.is_leaf else float(self._trees.threshold[self._i]))
    left = property(lambda self: None if self.is_leaf else Node(self._trees, self._i + 1))
    right = property(lambda self: None if self.is_leaf else Node(
        self._trees, int(self._trees.children[2 * self._i + 1])))


class _Nodes:
    """Trees' node lists, appended to in pre-order as trees grow or load."""

    def __init__(self):
        self.feature, self.threshold, self.children, self.value, self.count = [], [], [], [], []
        self.roots, self.depth = [], 0

    def add(self, prob: float, count: int, depth: int) -> int:
        """Append a leaf at ``depth``, a root at depth 0; return its number."""
        i = len(self.value)
        if depth == 0:
            self.roots.append(i)
        self.depth = max(self.depth, depth)
        self.feature.append(0)
        self.threshold.append(0.0)
        self.children += (i, i)
        self.value.append(prob)
        self.count.append(count)
        return i

    def split(self, i: int, column: int, threshold: float) -> None:
        """Make node i, whose left subtree was just appended, an inner node
        whose right child is the next node appended."""
        self.feature[i], self.threshold[i] = column, threshold
        self.children[2 * i:2 * i + 2] = (i + 1, len(self.value))

    def trees(self) -> Trees:
        lists = (self.feature, self.threshold, self.children, self.value, self.count, self.roots)
        dtypes = (np.intp, np.float64, np.intp, np.float64, np.int64, np.intp)
        return Trees(*map(np.array, lists, dtypes), self.depth)


def _weighted_gini(n_left, pos_left, n_right, pos_right):
    """Impurity of a split; works on scalars or aligned arrays."""
    pl = pos_left / n_left
    pr = pos_right / n_right
    g_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    g_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    return (n_left * g_left + n_right * g_right) / (n_left + n_right)


def _best_split_on_column(x, counts, min_leaf):
    """Best (cost, threshold) on one real-valued column, or None if no
    valid split. Row i of ``x`` counts ``counts[0, i]`` times,
    ``counts[1, i]`` of them positive.

    Thresholds are midpoints of adjacent distinct sorted values; a split
    is valid when both sides count at least min_leaf rows.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    boundaries = np.flatnonzero(xs[1:] != xs[:-1])  # split after sorted index i
    if boundaries.size == 0:
        return None
    cum_w, cum_pos = np.cumsum(counts[:, order], axis=1)
    n_left = cum_w[boundaries]
    n_right = cum_w[-1] - n_left
    valid = (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    boundaries = boundaries[valid]
    n_left = n_left[valid]
    n_right = n_right[valid]
    pos_left = cum_pos[boundaries]
    pos_right = cum_pos[-1] - pos_left
    costs = _weighted_gini(n_left, pos_left, n_right, pos_right)
    best = int(np.argmin(costs))  # first minimum -> lowest threshold
    thr = (xs[boundaries[best]] + xs[boundaries[best] + 1]) / 2.0
    return float(costs[best]), float(thr)


def _best_split(Xu, rows, counts, n, pos, cols, min_leaf, binary_cols):
    """(column, threshold) of a node's lowest-cost valid split over the
    sorted ``cols``, or None; ties keep the lowest column, then the lowest
    threshold.

    Binary 0/1 columns split at 0.5 and are scored together: one product
    counts the node's ones and its positive ones. Every sum here adds
    integer-valued counts, so it is exact in any order.
    """
    costs = np.full(cols.size, np.inf)
    thresholds = np.full(cols.size, 0.5)
    binary = binary_cols[cols]
    if binary.any():
        ones_cols = cols[binary]
        right = np.zeros((2, ones_cols.size))  # ones go right of the 0.5 threshold
        for start in range(0, rows.size, _ROW_BLOCK):
            part = slice(start, start + _ROW_BLOCK)
            right += counts[:, part] @ Xu[rows[part, None], ones_cols]
        n_right, pos_right = right
        n_left = n - n_right
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        costs[np.flatnonzero(binary)[valid]] = _weighted_gini(
            n_left[valid], pos - pos_right[valid], n_right[valid], pos_right[valid]
        )
    for i in np.flatnonzero(~binary):
        found = _best_split_on_column(Xu[rows, cols[i]], counts, min_leaf)
        if found is not None:
            costs[i], thresholds[i] = found
    if not np.any(costs < np.inf):
        return None
    best = int(np.argmin(costs))  # first minimum -> lowest column
    return int(cols[best]), float(thresholds[best])


def _grow_tree(nodes, Xu, rows, counts, depth, max_depth, min_leaf, rng, features_per_split,
               binary_cols):
    """Append the subtree over the distinct rows ``rows`` of ``Xu`` to
    ``nodes``, row ``rows[i]`` counted ``counts[0, i]`` times, ``counts[1, i]``
    of them positive. Nodes draw their columns in pre-order, as appended."""
    n, pos = (float(total) for total in counts.sum(axis=1))
    i = nodes.add(pos / n, int(n), depth)
    if pos == 0.0 or pos == n or depth >= max_depth or n < 2 * min_leaf:
        return
    width = Xu.shape[1]
    if features_per_split is not None:
        cols = np.sort(rng.choice(width, size=features_per_split, replace=False))
    else:
        cols = np.arange(width)
    split = _best_split(Xu, rows, counts, n, pos, cols, min_leaf, binary_cols)
    if split is None:
        return
    column, threshold = split
    left = Xu[rows, column] < threshold
    below = (depth + 1, max_depth, min_leaf, rng, features_per_split, binary_cols)
    _grow_tree(nodes, Xu, rows[left], counts[:, left], *below)
    nodes.split(i, column, threshold)
    _grow_tree(nodes, Xu, rows[~left], counts[:, ~left], *below)


def _binary_columns(X: np.ndarray) -> np.ndarray:
    # one-hot data hits the count-based fast path; anything else sorts
    out = np.zeros(X.shape[1], dtype=bool)
    for c in range(X.shape[1]):
        col = X[:, c]
        out[c] = bool(np.all((col == 0.0) | (col == 1.0)))
    return out


def _grow_trees(data: _Distinct, hyper, n_trees, bootstrap, features_per_split, seed) -> Trees:
    """Grow ``n_trees`` trees. Tree t draws from its own generator,
    PCG64(seed + t): its bootstrap sample when ``bootstrap`` is set, and the
    columns each split scores when ``features_per_split`` is below the width.

    Trees grow on the distinct (row, label) pairs of the training set. A
    tree's sample becomes each pair's count in it, and a node holds the
    pairs it counts at least once.
    """
    n, distinct = data.inverse.size, data.y.size
    max_depth, min_leaf = int(hyper["max_depth"]), int(hyper["min_leaf"])
    sampled = features_per_split if features_per_split < data.X.shape[1] else None
    binary_cols = _binary_columns(data.X)
    nodes = _Nodes()
    for t in range(n_trees):
        rng = np.random.Generator(np.random.PCG64(seed + t))  # per-tree stream
        if bootstrap:  # n row draws, counted per pair
            counts = np.bincount(data.inverse[rng.integers(0, n, size=n)], minlength=distinct)
        else:
            counts = data.counts
        rows = np.flatnonzero(counts)
        w = counts[rows].astype(np.float64)
        _grow_tree(nodes, data.X, rows, np.stack((w, w * data.y[rows])), 0, max_depth, min_leaf,
                   rng, sampled, binary_cols)
    return nodes.trees()


def train_tree(
    X, y, hyperparameters: dict | None = None, schema_hash: str = ""
) -> TrainedModel:
    """CART-style tree minimizing weighted Gini impurity: a forest of one
    tree, grown on every row and scoring every column at each split.

    Splits whenever a valid split exists on an impure node, even at zero
    gain: parity patterns need the gain to appear a level deeper.
    """
    hyper = _merge_hyper(TREE_DEFAULTS, hyperparameters)
    data = _distinct_training_set(X, y)
    width = data.X.shape[1]
    return TrainedModel(
        kind="decision_tree",
        width=width,
        schema_hash=schema_hash,
        train_seed=0,
        hyperparameters=hyper,
        trees=_grow_trees(data, hyper, 1, bootstrap=False, features_per_split=width, seed=0),
    )


def train_forest(
    X, y, hyperparameters: dict | None = None, schema_hash: str = "", seed: int = 0
) -> TrainedModel:
    hyper = _merge_hyper(FOREST_DEFAULTS, hyperparameters)
    data = _distinct_training_set(X, y)
    width = data.X.shape[1]
    k = hyper["features_per_split"]
    features_per_split = min(int(k) if k is not None else math.ceil(math.sqrt(width)), width)
    return TrainedModel(
        kind="random_forest",
        width=width,
        schema_hash=schema_hash,
        train_seed=seed,
        hyperparameters=dict(hyper, features_per_split=features_per_split),
        trees=_grow_trees(
            data, hyper, int(hyper["n_trees"]), hyper["bootstrap"], features_per_split, seed
        ),
    )


# ---------------------------------------------------------------------------
# prediction and evaluation
# ---------------------------------------------------------------------------

def _predict_flat(trees: Trees, X: np.ndarray) -> np.ndarray:
    """Step the (trees, rows) node matrix from the roots to the leaves, then
    average the leaf values tree by tree in tree order.

    Summing in tree order, not with a reduction whose order depends on the
    batch shape, keeps each row's score the same in any batch.
    """
    n, width = X.shape
    cells = X.ravel()
    row_start = np.arange(n) * width
    nodes = np.repeat(trees.roots[:, None], n, axis=1)
    for _ in range(trees.depth):
        go_right = ~(cells.take(row_start + trees.feature.take(nodes)) < trees.threshold.take(nodes))
        nodes = trees.children.take(2 * nodes + go_right)
    leaf_values = trees.value.take(nodes)
    total = leaf_values[0].copy()
    for tree_values in leaf_values[1:]:
        total += tree_values
    return total / len(trees.roots)


class FieldCodes(NamedTuple):
    """A batch as the category codes of its one-hot fields.

    ``codes[f, i]`` is row i's value of field f as an index into the
    field's ``sizes[f]`` categories, or -1 for a value outside them. The
    one-hot row it stands for holds the fields' blocks side by side, in
    order: 1.0 at each known code's column, 0.0 everywhere else.
    """

    codes: np.ndarray  # (fields, rows), int
    sizes: tuple[int, ...]

    def one_hot(self) -> np.ndarray:
        """The one-hot rows the codes stand for."""
        n = self.codes.shape[1]
        X = np.zeros((n, sum(self.sizes)), dtype=np.float64)
        rows = np.arange(n)
        start = 0
        for codes, size in zip(self.codes, self.sizes):
            hit = codes >= 0
            columns = codes[hit]
            columns += start
            X[rows[hit], columns] = 1.0
            start += size
        return X


class _LeafMasks(NamedTuple):
    """The trees of one model compiled for scoring FieldCodes.

    Each tree's leaves are numbered left to right, in pre-order. Field f's
    code k selects table row ``start[f] + k``, so code -1, a value outside
    its categories, selects the row before its first code's.
    ``table[row, t]`` holds, as uint64 words, the bits of tree t's leaves
    still reachable when the field takes that value; ANDed over the
    fields, one bit is left, the row's leaf. Leaf j of tree t has its
    value at ``values[first_leaf[t] + j]``.
    """

    table: np.ndarray  # (rows, trees, words), uint64
    start: np.ndarray  # (fields, 1)
    first_leaf: np.ndarray  # (trees,)
    values: np.ndarray


def _leaf_bits(lo: np.ndarray, hi: np.ndarray, words: int) -> np.ndarray:
    """The leaf numbers of each range [lo, hi) as bits in ``words`` uint64
    words."""
    def below(k):  # the bits of the leaf numbers under k
        k = np.clip(k[:, None] - 64 * np.arange(words), 0, 64).astype(np.uint64)
        low = (np.uint64(1) << np.minimum(k, np.uint64(63))) - np.uint64(1)
        return np.where(k == 64, np.uint64(0xFFFFFFFFFFFFFFFF), low)

    return below(hi) & ~below(lo)


def _compile_leaf_masks(trees: Trees, sizes: tuple[int, ...]) -> _LeafMasks:
    """Compile trees over one-hot fields of ``sizes`` columns into leaf masks.

    Each inner node tests one column, the category of one field, and
    sends a row left when its value is under the threshold, as
    _predict_flat does; the leaves of the side a value does not take are
    cleared from that value's mask. A field's value is 1.0 in its own
    category's column and 0.0 in the others, and 0.0 in every column when
    it is outside the categories.
    """
    n_nodes, n_trees = trees.value.size, trees.roots.size
    right = trees.children[1::2]
    leaf = trees.children[0::2] == np.arange(n_nodes)
    # in pre-order a subtree's leaves are consecutive: a node's run from the
    # count of leaves before it to its rightmost leaf, reached by going right
    leaves_before = np.cumsum(leaf) - leaf
    rightmost = np.arange(n_nodes)
    for _ in range(trees.depth):
        rightmost = right.take(rightmost)
    tree = np.repeat(np.arange(n_trees), np.diff(trees.roots, append=n_nodes))
    first_leaf = leaves_before[trees.roots]
    lo = leaves_before - first_leaf[tree]  # each node's leaves, numbered in its tree: [lo, hi)
    hi = leaves_before[rightmost] + 1 - first_leaf[tree]
    tree_leaves = hi[trees.roots]
    words = (int(tree_leaves.max()) + 63) // 64
    ends = np.cumsum(sizes)
    start = ends - sizes + np.arange(1, len(sizes) + 1)  # each field's code 0's table row

    p = np.flatnonzero(~leaf)
    mid = lo[right[p]]
    left_bits = _leaf_bits(lo[p], mid, words)
    right_bits = _leaf_bits(mid, hi[p], words)
    column = trees.feature[p]
    at = (column + np.searchsorted(ends, column, side="right") + 1, tree[p])
    # per table row and tree, the leaves cleared by the nodes testing that
    # row's column when it holds 0.0 and when it holds 1.0
    cleared_at_0 = np.zeros((ends[-1] + len(sizes), n_trees, words), dtype=np.uint64)
    cleared_at_1 = np.zeros_like(cleared_at_0)
    threshold = trees.threshold[p, None]
    np.bitwise_or.at(cleared_at_0, at, np.where(0.0 < threshold, right_bits, left_bits))
    np.bitwise_or.at(cleared_at_1, at, np.where(1.0 < threshold, right_bits, left_bits))

    # a value clears, per tree, what its own column clears at 1.0 and
    # every other column of its field at 0.0
    cleared = cleared_at_1
    for first_row, size in zip(start, sizes):
        block = slice(first_row - 1, first_row + size)
        zeros = cleared_at_0[block]
        before = np.bitwise_or.accumulate(zeros, axis=0)
        after = np.bitwise_or.accumulate(zeros[::-1], axis=0)[::-1]
        cleared[block][1:] |= before[:-1]
        cleared[block][:-1] |= after[1:]
    table = _leaf_bits(np.zeros(n_trees, dtype=np.int64), tree_leaves, words) & ~cleared
    return _LeafMasks(table, start[:, None], first_leaf, trees.value[leaf])


def _predict_masks(masks: _LeafMasks, codes: np.ndarray) -> np.ndarray:
    """Gather each field's leaf masks, AND them, take each tree's one leaf
    left, then average the leaf values tree by tree in tree order, as
    _predict_flat does."""
    rows = codes + masks.start
    bits = masks.table.take(rows[0], axis=0)  # (rows, trees, words)
    for field_rows in rows[1:]:
        np.bitwise_and(bits, masks.table.take(field_rows, axis=0), out=bits)
    bits = bits.astype(np.float64)  # a word with bit j set is now 2**j, exactly
    # frexp splits 2**j into 0.5 * 2**(j + 1) and gives a zero word exponent
    # 0; the mantissas overwrite the words, which are then let go
    place = np.frexp(bits, out=(bits, np.empty(bits.shape, dtype=np.intc)))[1]
    del bits
    # the one nonzero word's bit follows the 64 bits of each word before it
    word_base = 64 * np.arange(place.shape[2], dtype=np.intc)
    np.add(place, word_base, out=place, where=place > 0)
    leaf_values = masks.values.take(place.max(axis=2) + (masks.first_leaf - 1))
    return np.cumsum(leaf_values, axis=1)[:, -1] / masks.first_leaf.size


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    """The score of each row of ``X``: one-hot rows, as a matrix or one
    row, or a batch as FieldCodes."""
    codes = X if isinstance(X, FieldCodes) else None
    if codes is not None:
        n, width = codes.codes.shape[1], sum(codes.sizes)
    else:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        n, width = X.shape
    if width != model.width:
        raise SchemaMismatchError(
            f"feature width {width} does not match model width {model.width}"
        )
    if model.kind == "logistic_regression":
        if codes is not None:
            X = codes.one_hot()
        # row-local sum keeps single-row and batched scoring bit-identical
        z = (X * model.weights).sum(axis=1) + model.bias
        return sigmoid(z)
    if model.kind in _TREE_KINDS:
        if codes is not None:
            masks = model._leaf_masks(codes.sizes)
            blocks = [
                _predict_masks(masks, codes.codes[:, start:start + _PREDICT_BLOCK])
                for start in range(0, n, _PREDICT_BLOCK)
            ]
        else:
            blocks = [
                _predict_flat(model.trees, X[start:start + _PREDICT_BLOCK])
                for start in range(0, n, _PREDICT_BLOCK)
            ]
        return np.concatenate(blocks) if blocks else np.empty(0)
    raise ConfigError(f"unknown model kind {model.kind!r}")


def evaluate(probabilities, truth, threshold: float = 0.5) -> EvalMetrics:
    """Counting-based metrics at a decision threshold (label = p >= threshold)."""
    p = np.asarray(probabilities, dtype=np.float64)
    t = np.asarray(truth, dtype=bool)
    if p.shape[0] == 0:
        raise DataError("cannot evaluate on an empty set")
    if p.shape != t.shape:
        raise DataError("probabilities and truth must align")
    pred = p >= threshold
    tp = int(np.sum(pred & t))
    tn = int(np.sum(~pred & ~t))
    fp = int(np.sum(pred & ~t))
    fn = int(np.sum(~pred & t))
    accuracy = (tp + tn) / p.shape[0]
    denom = 2 * tp + fp + fn
    f1 = (2 * tp / denom) if denom else 0.0
    return EvalMetrics(tn=tn, fp=fp, fn=fn, tp=tp, accuracy=accuracy, f1=f1, threshold=threshold)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _tree_dicts(trees: Trees) -> list[dict]:
    """Each tree as format 1's nested nodes."""
    feature, threshold, children, value, count = map(
        np.ndarray.tolist, (trees.feature, trees.threshold, trees.children, trees.value, trees.count))

    def node(i: int) -> dict:
        if children[2 * i] == i:
            return {"prob": value[i], "count": count[i]}
        return {"prob": value[i], "count": count[i], "column": feature[i], "threshold": threshold[i],
                "left": node(i + 1), "right": node(children[2 * i + 1])}

    return [node(root) for root in trees.roots.tolist()]


def _finite(value, name: str):
    if type(value) not in (int, float) or not math.isfinite(value):
        raise DataError(f"tree node {name} {value!r} is not a finite number")
    return value


def _load_node(nodes: _Nodes, data: dict, depth: int, width: int) -> None:
    """Append format 1's nested node ``data`` and its subtree to ``nodes``
    in pre-order, as _grow_tree does, refusing a node it could not grow."""
    if type(data["count"]) is not int:
        raise DataError(f"tree node count {data['count']!r} is not an integer")
    i = nodes.add(_finite(data["prob"], "prob"), data["count"], depth)
    if "column" in data:
        column = data["column"]
        if type(column) is not int or not 0 <= column < width:
            raise DataError(f"tree node column {column!r} is not in [0, {width})")
        threshold = _finite(data["threshold"], "threshold")
        _load_node(nodes, data["left"], depth + 1, width)
        nodes.split(i, column, threshold)
        _load_node(nodes, data["right"], depth + 1, width)


def model_to_json(model: TrainedModel) -> str:
    payload = {
        "format": SERIALIZATION_FORMAT,
        "kind": model.kind,
        "width": model.width,
        "schema_hash": model.schema_hash,
        "train_seed": model.train_seed,
        "hyperparameters": model.hyperparameters,
    }
    if model.kind == "logistic_regression":
        payload["parameters"] = {
            "weights": [float(w) for w in model.weights],
            "bias": float(model.bias),
        }
    elif model.kind in _TREE_KINDS:
        trees = _tree_dicts(model.trees)
        # format 1 keeps a decision tree's one tree under "root"
        key, value = ("root", trees[0]) if model.kind == "decision_tree" else ("trees", trees)
        payload["parameters"] = {key: value}
    else:
        raise ConfigError(f"unknown model kind {model.kind!r}")
    return json.dumps(payload, sort_keys=True)


def model_from_json(text: str) -> TrainedModel:
    data = json.loads(text)
    if data.get("format") != SERIALIZATION_FORMAT:
        raise DataError(f"unsupported model format {data.get('format')!r}")
    kind = data["kind"]
    model = TrainedModel(
        kind=kind,
        width=data["width"],
        schema_hash=data["schema_hash"],
        train_seed=data["train_seed"],
        hyperparameters=data["hyperparameters"],
    )
    params = data["parameters"]
    if kind == "logistic_regression":
        model.weights = np.array(params["weights"], dtype=np.float64)
        model.bias = float(params["bias"])
    elif kind in _TREE_KINDS:
        nodes = _Nodes()
        for tree in [params["root"]] if kind == "decision_tree" else params["trees"]:
            _load_node(nodes, tree, 0, model.width)
        if not nodes.roots:
            raise DataError("a random_forest blob holds no tree")
        model.trees = nodes.trees()
    else:
        raise DataError(f"unknown model kind {kind!r}")
    return model
