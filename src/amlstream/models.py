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
grower and hold their trees in ``TrainedModel.trees``. Only their blobs
differ, as format 1 always has: a decision tree keeps its tree under
"root", a forest its list under "trees".

Prediction contract: predict_proba computes per-row values with
row-local arithmetic (no batch-shape-dependent reductions), so scoring
one record equals scoring it inside any batch, bit for bit.

Trees grow and serialize as linked TreeNodes. For prediction, a tree
model is compiled once per model object into parallel node arrays
(scikit-learn's tree_ layout, leaves pointing to themselves).
predict_proba then steps the (trees, rows) node matrix from the roots,
every tree at once, at most max_depth times (Hummingbird's tree
traversal; Nakandala et al., OSDI 2020). The score is the mean of the
leaf values summed in tree order, so it is the same for one row as in
any batch. The compiled form is never serialized: model bytes are
unchanged by it.
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
_HESSIAN_BLOCK = 4096  # rows of X scaled at once when forming the Hessian
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

SERIALIZATION_FORMAT = 1
_PREDICT_BLOCK = 1024  # rows scored at once; bounds the (trees, rows) node matrix


@dataclass
class TreeNode:
    prob: float
    count: int
    column: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.column is None


@dataclass
class TrainedModel:
    kind: str
    width: int
    schema_hash: str
    train_seed: int
    hyperparameters: dict
    weights: Optional[np.ndarray] = None  # logistic
    bias: float = 0.0
    trees: Optional[list[TreeNode]] = None  # tree (a list of one) or forest
    loss_history: list[float] = field(default_factory=list, repr=False)
    n_iters: int = 0

    @functools.cached_property
    def _flat_trees(self) -> "_FlatTrees":
        """The trees compiled for prediction, once per model object."""
        return _flatten_trees(self.trees)


@dataclass(frozen=True)
class EvalMetrics:
    tn: int
    fp: int
    fn: int
    tp: int
    accuracy: float
    f1: float
    threshold: float


def _merge_hyper(defaults: dict, overrides: dict | None) -> dict:
    merged = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown hyperparameter {key!r}")
        merged[key] = value
    return merged


def _check_training_input(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("training set must be a non-empty 2-D matrix")
    if y.shape[0] != X.shape[0]:
        raise DataError("labels must align with the feature matrix")
    if not np.all(np.isfinite(X)):
        raise DataError("training matrix contains non-finite values")
    return X, y.astype(np.float64)


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def logistic_loss(X, y, w, b, l2=0.0) -> float:
    p = sigmoid(np.asarray(X) @ np.asarray(w) + b)
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    data = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float(data + 0.5 * l2 * float(np.dot(w, w)))


def logistic_gradient(X, y, w, b, l2=0.0) -> tuple[np.ndarray, float]:
    """Gradient of the mean log-loss (plus L2 on weights, not bias)."""
    X = np.asarray(X)
    residual = sigmoid(X @ np.asarray(w) + b) - y
    g_w = X.T @ residual / X.shape[0] + l2 * np.asarray(w)
    g_b = float(np.mean(residual))
    return g_w, g_b


def _logistic_hessian(X, w, b, l2) -> np.ndarray:
    """Hessian of the mean log-loss over (weights, bias), bias last.

    X^T S X is summed over row blocks, so the scaled copy of X is at most
    _HESSIAN_BLOCK rows.
    """
    n, width = X.shape
    H = np.zeros((width + 1, width + 1), dtype=np.float64)
    for start in range(0, n, _HESSIAN_BLOCK):
        block = X[start:start + _HESSIAN_BLOCK]
        p = sigmoid(block @ w + b)
        s = p * (1.0 - p)
        scaled = block * s[:, None]
        H[:width, :width] += scaled.T @ block
        H[:width, width] += scaled.sum(axis=0)
        H[width, width] += s.sum()
    H /= n
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
    after every step.
    """
    hyper = _merge_hyper(LOGISTIC_DEFAULTS, hyperparameters)
    X, y = _check_training_input(X, y)
    tol = float(hyper["tolerance"])
    l2 = float(hyper["l2"])
    max_iters = int(hyper["max_iters"])

    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    losses = [logistic_loss(X, y, w, b, l2)]
    iters = 0
    for _ in range(max_iters):
        g_w, g_b = logistic_gradient(X, y, w, b, l2)
        g_max = max(float(np.max(np.abs(g_w))) if g_w.size else 0.0, abs(g_b))
        if g_max < tol:
            break
        step = np.linalg.lstsq(_logistic_hessian(X, w, b, l2), np.append(g_w, g_b), rcond=None)[0]
        for halving in range(_MAX_HALVINGS + 1):
            scale = 0.5**halving
            w_new = w - scale * step[:-1]
            b_new = b - scale * float(step[-1])
            loss = logistic_loss(X, y, w_new, b_new, l2)
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

def _weighted_gini(n_left, pos_left, n_right, pos_right):
    """Impurity of a split; works on scalars or aligned arrays."""
    pl = pos_left / n_left
    pr = pos_right / n_right
    g_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    g_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    return (n_left * g_left + n_right * g_right) / (n_left + n_right)


def _best_split_on_column(x, y, min_leaf, binary):
    """Best (cost, threshold) on one column, or None if no valid split.

    Thresholds are midpoints of adjacent distinct sorted values; a split
    is valid when both sides hold at least min_leaf rows. Binary 0/1
    columns short-circuit to the single midpoint 0.5 with count math.
    """
    n = x.shape[0]
    if binary:
        n_right = float(x.sum())  # ones go right of the 0.5 threshold
        n_left = n - n_right
        if n_left < min_leaf or n_right < min_leaf:
            return None
        pos_right = float(x @ y)
        pos_left = float(y.sum()) - pos_right
        return _weighted_gini(n_left, pos_left, n_right, pos_right), 0.5

    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    boundaries = np.flatnonzero(xs[1:] != xs[:-1])  # split after sorted index i
    if boundaries.size == 0:
        return None
    n_left = boundaries + 1.0
    n_right = n - n_left
    valid = (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    boundaries = boundaries[valid]
    n_left = n_left[valid]
    n_right = n_right[valid]
    cum_pos = np.cumsum(ys)
    pos_left = cum_pos[boundaries]
    pos_right = cum_pos[-1] - pos_left
    costs = _weighted_gini(n_left, pos_left, n_right, pos_right)
    best = int(np.argmin(costs))  # first minimum -> lowest threshold
    thr = (xs[boundaries[best]] + xs[boundaries[best] + 1]) / 2.0
    return float(costs[best]), float(thr)


def _grow_tree(X, y, idx, depth, max_depth, min_leaf, rng, features_per_split, binary_cols):
    n = idx.size
    y_node = y[idx]
    pos = float(y_node.sum())
    node = TreeNode(prob=pos / n, count=int(n))
    if pos == 0.0 or pos == n or depth >= max_depth or n < 2 * min_leaf:
        return node
    width = X.shape[1]
    if features_per_split is not None and features_per_split < width:
        cols = np.sort(rng.choice(width, size=features_per_split, replace=False))
    else:
        cols = range(width)
    best = None  # (cost, column, threshold); ties keep the earliest
    for c in cols:
        found = _best_split_on_column(X[idx, c], y_node, min_leaf, binary_cols[c])
        if found is None:
            continue
        cost, thr = found
        if best is None or cost < best[0]:
            best = (cost, int(c), thr)
    if best is None:
        return node
    _, column, threshold = best
    mask = X[idx, column] < threshold
    node.column = column
    node.threshold = threshold
    node.left = _grow_tree(
        X, y, idx[mask], depth + 1, max_depth, min_leaf, rng, features_per_split, binary_cols
    )
    node.right = _grow_tree(
        X, y, idx[~mask], depth + 1, max_depth, min_leaf, rng, features_per_split, binary_cols
    )
    return node


def _binary_columns(X: np.ndarray) -> np.ndarray:
    # one-hot data hits the count-based fast path; anything else sorts
    out = np.zeros(X.shape[1], dtype=bool)
    for c in range(X.shape[1]):
        col = X[:, c]
        out[c] = bool(np.all((col == 0.0) | (col == 1.0)))
    return out


def _grow_trees(X, y, hyper, n_trees, bootstrap, features_per_split, seed) -> list[TreeNode]:
    """Grow ``n_trees`` trees. Tree t draws from its own generator,
    PCG64(seed + t): its bootstrap sample when ``bootstrap`` is set, and the
    columns each split scores when ``features_per_split`` is below the width."""
    n, width = X.shape
    max_depth, min_leaf = int(hyper["max_depth"]), int(hyper["min_leaf"])
    sampled = features_per_split if features_per_split < width else None
    binary_cols = _binary_columns(X)
    trees = []
    for t in range(n_trees):
        rng = np.random.Generator(np.random.PCG64(seed + t))  # per-tree stream
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(_grow_tree(X, y, idx, 0, max_depth, min_leaf, rng, sampled, binary_cols))
    return trees


def train_tree(
    X, y, hyperparameters: dict | None = None, schema_hash: str = ""
) -> TrainedModel:
    """CART-style tree minimizing weighted Gini impurity: a forest of one
    tree, grown on every row and scoring every column at each split.

    Splits whenever a valid split exists on an impure node, even at zero
    gain: parity patterns need the gain to appear a level deeper.
    """
    hyper = _merge_hyper(TREE_DEFAULTS, hyperparameters)
    X, y = _check_training_input(X, y)
    width = X.shape[1]
    return TrainedModel(
        kind="decision_tree",
        width=width,
        schema_hash=schema_hash,
        train_seed=0,
        hyperparameters=hyper,
        trees=_grow_trees(X, y, hyper, 1, bootstrap=False, features_per_split=width, seed=0),
    )


def train_forest(
    X, y, hyperparameters: dict | None = None, schema_hash: str = "", seed: int = 0
) -> TrainedModel:
    hyper = _merge_hyper(FOREST_DEFAULTS, hyperparameters)
    X, y = _check_training_input(X, y)
    width = X.shape[1]
    n_trees = int(hyper["n_trees"])
    if n_trees < 1:
        raise ConfigError("n_trees must be >= 1")
    k = hyper["features_per_split"]
    features_per_split = min(int(k) if k is not None else math.ceil(math.sqrt(width)), width)
    return TrainedModel(
        kind="random_forest",
        width=width,
        schema_hash=schema_hash,
        train_seed=seed,
        hyperparameters=dict(hyper, features_per_split=features_per_split),
        trees=_grow_trees(X, y, hyper, n_trees, hyper["bootstrap"], features_per_split, seed),
    )


# ---------------------------------------------------------------------------
# prediction and evaluation
# ---------------------------------------------------------------------------

class _FlatTrees(NamedTuple):
    """The trees of one model as parallel node arrays, trees in order.

    Node i sends a row left when ``row[feature[i]] < threshold[i]``, to
    ``children[2 * i]``, and right otherwise, to ``children[2 * i + 1]``.
    ``value[i]`` is the node's positive fraction. A leaf's two children are
    the leaf itself, so stepping a row that sits on a leaf keeps it there.
    ``roots`` holds each tree's root and ``depth`` the deepest leaf's depth
    over all trees, which is how many steps take every row to its leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int


def _flatten_trees(trees: list[TreeNode]) -> _FlatTrees:
    feature, threshold, children, value, roots = [], [], [], [], []
    depth = 0
    for tree in trees:
        first = len(value)
        roots.append(first)
        # breadth-first: a node's number is its place in the queue, so its
        # children are numbered as they are queued
        queue = [(tree, 0)]
        for position, (node, node_depth) in enumerate(queue):
            depth = max(depth, node_depth)
            value.append(node.prob)
            if node.is_leaf:
                feature.append(0)
                threshold.append(0.0)
                children += [first + position, first + position]
            else:
                feature.append(node.column)
                threshold.append(node.threshold)
                children += [first + len(queue), first + len(queue) + 1]
                queue += [(node.left, node_depth + 1), (node.right, node_depth + 1)]
    return _FlatTrees(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        children=np.array(children, dtype=np.intp),
        value=np.array(value, dtype=np.float64),
        roots=np.array(roots, dtype=np.intp),
        depth=depth,
    )


def _predict_flat(flat: _FlatTrees, X: np.ndarray) -> np.ndarray:
    """Step the (trees, rows) node matrix from the roots to the leaves, then
    average the leaf values tree by tree in tree order.

    Summing in tree order, not with a reduction whose order depends on the
    batch shape, keeps each row's score the same in any batch.
    """
    n, width = X.shape
    cells = X.ravel()
    row_start = np.arange(n) * width
    nodes = np.repeat(flat.roots[:, None], n, axis=1)
    for _ in range(flat.depth):
        go_right = ~(cells.take(row_start + flat.feature.take(nodes)) < flat.threshold.take(nodes))
        nodes = flat.children.take(2 * nodes + go_right)
    leaf_values = flat.value.take(nodes)
    total = leaf_values[0].copy()
    for tree_values in leaf_values[1:]:
        total += tree_values
    return total / len(flat.roots)


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[1] != model.width:
        raise SchemaMismatchError(
            f"feature width {X.shape[1]} does not match model width {model.width}"
        )
    if model.kind == "logistic_regression":
        # row-local sum keeps single-row and batched scoring bit-identical
        z = (X * model.weights).sum(axis=1) + model.bias
        return sigmoid(z)
    if model.kind in _TREE_KINDS:
        flat = model._flat_trees
        blocks = [
            _predict_flat(flat, X[start:start + _PREDICT_BLOCK])
            for start in range(0, X.shape[0], _PREDICT_BLOCK)
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

def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"prob": node.prob, "count": node.count}
    return {
        "prob": node.prob,
        "count": node.count,
        "column": node.column,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(data: dict) -> TreeNode:
    node = TreeNode(prob=data["prob"], count=data["count"])
    if "column" in data:
        node.column = data["column"]
        node.threshold = data["threshold"]
        node.left = _node_from_dict(data["left"])
        node.right = _node_from_dict(data["right"])
    return node


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
        trees = [_node_to_dict(t) for t in model.trees]
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
        trees = [params["root"]] if kind == "decision_tree" else params["trees"]
        model.trees = [_node_from_dict(t) for t in trees]
    else:
        raise DataError(f"unknown model kind {kind!r}")
    return model
