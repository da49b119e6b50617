"""Classifier tests: training behavior, oracles, serialization."""

import hashlib
import json
import math
import tracemalloc
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from amlstream.cli import Workspace, _fit_kinds, _prepare_training
from amlstream.config import FOREST_SEED_OFFSET, PipelineConfig
from amlstream.errors import ConfigError, DataError, SchemaMismatchError
from amlstream.models import (
    FOREST_DEFAULTS,
    MODEL_KINDS,
    TREE_DEFAULTS,
    EvalMetrics,
    FieldCodes,
    _best_split_on_column,
    _distinct_rows,
    _finite,
    _grow_trees,
    _Nodes,
    _weighted_gini,
    evaluate,
    logistic_gradient,
    logistic_loss,
    model_from_json,
    model_to_json,
    predict_proba,
    train_forest,
    train_logistic,
    train_tree,
    training_set,
)
from amlstream.txgen import GeneratorConfig, generate, records_of


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def one_hot_fixture(n=400, seed=1, levels=(4, 3, 5)):
    """Rows of categorical fields, one-hot encoded, with a label that
    leans on two of them."""
    rng = rng_for(seed)
    codes = np.column_stack([rng.integers(0, k, size=n) for k in levels])
    X = np.concatenate([np.eye(k)[codes[:, i]] for i, k in enumerate(levels)], axis=1)
    y = rng.random(n) < 0.2 + 0.3 * (codes[:, 0] == 1) + 0.3 * (codes[:, 2] >= 3)
    return X, y


def oracle_leaf(node, row):
    while not node.is_leaf:
        node = node.left if row[node.column] < node.threshold else node.right
    return node.prob


def oracle_forest(trees, X):
    """Walk each row down each tree; sum the leaf values in tree order."""
    out = []
    for row in X:
        total = 0.0
        for tree in trees:
            total += oracle_leaf(tree, row)
        out.append(total / len(trees))
    return np.array(out)


@dataclass
class RefNode:
    """A tree node built by hand or by the reference grower below."""

    prob: float
    count: int
    column: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["RefNode"] = None
    right: Optional["RefNode"] = None

    @property
    def is_leaf(self):
        return self.column is None


def node_dict(node):
    """``node`` and its subtree as serialization format 1 writes them."""
    if node.is_leaf:
        return {"prob": node.prob, "count": node.count}
    return {"prob": node.prob, "count": node.count, "column": node.column,
            "threshold": node.threshold, "left": node_dict(node.left), "right": node_dict(node.right)}


def tree_model(kind, trees, width, hyperparameters=None, schema_hash="", train_seed=0):
    """A model of RefNode trees, written out as a format-1 blob and loaded."""
    dicts = [node_dict(tree) for tree in trees]
    return model_from_json(json.dumps({
        "format": 1, "kind": kind, "width": width, "schema_hash": schema_hash,
        "train_seed": train_seed, "hyperparameters": hyperparameters or {},
        "parameters": {"root": dicts[0]} if kind == "decision_tree" else {"trees": dicts},
    }))


def training_matrix(transactions, seed):
    """The schema, and the balanced training rows and labels that ``train``
    fits on, as a one-hot matrix."""
    schema, codes, y, *_, over = _prepare_training(records_of(transactions).columns, seed)
    return schema, FieldCodes(codes.codes[:, over], codes.sizes).one_hot(), y[over]


def separable_fixture(n=200, seed=1):
    rng = rng_for(seed)
    X = rng.standard_normal((n, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(bool)
    X[y] += 2.0  # push classes apart
    X[~y] -= 2.0
    return X, y


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def test_logistic_separates_linear_fixture():
    X, y = separable_fixture()
    model = train_logistic(X, y)
    metrics = evaluate(predict_proba(model, X), y)
    assert metrics.accuracy == 1.0


def test_logistic_loss_non_increasing():
    rng = rng_for(3)
    X = rng.standard_normal((200, 4))
    y = rng.random(200) > 0.4
    model = train_logistic(X, y)
    losses = model.loss_history
    assert len(losses) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def finite_difference_gradient(X, y, w, b, l2=0.0, h=1e-6):
    g_w = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        g_w[i] = (logistic_loss(X, y, up, b, l2) - logistic_loss(X, y, down, b, l2)) / (2 * h)
    g_b = (logistic_loss(X, y, w, b + h, l2) - logistic_loss(X, y, w, b - h, l2)) / (2 * h)
    return g_w, g_b


def test_logistic_gradient_matches_central_differences():
    rng = rng_for(17)
    for trial in range(20):
        X = rng.standard_normal((40, 5))
        y = rng.random(40) > 0.5
        w = rng.standard_normal(5)
        b = float(rng.standard_normal())
        l2 = 0.1 if trial % 2 else 0.0
        g_w, g_b = logistic_gradient(X, y.astype(np.float64), w, b, l2)
        fd_w, fd_b = finite_difference_gradient(X, y.astype(np.float64), w, b, l2)
        full = np.append(g_w, g_b)
        fd = np.append(fd_w, fd_b)
        rel = np.linalg.norm(full - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5, (trial, rel)


def test_logistic_gradient_small_at_convergence():
    X, y = separable_fixture(n=120, seed=5)
    model = train_logistic(X, y, {"max_iters": 8_000})
    g_w, g_b = logistic_gradient(X, y.astype(np.float64), model.weights, model.bias)
    fd_w, fd_b = finite_difference_gradient(X, y.astype(np.float64), model.weights, model.bias)
    rel = np.linalg.norm(np.append(g_w - fd_w, g_b - fd_b)) / max(
        np.linalg.norm(np.append(fd_w, fd_b)), 1e-8
    )
    assert rel < 1e-3  # fd of a tiny gradient is noisy; direction still agrees


def test_logistic_deterministic():
    X, y = separable_fixture(seed=9)
    a = train_logistic(X, y)
    b = train_logistic(X, y)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_logistic_l2_shrinks_weights():
    X, y = separable_fixture(seed=2)
    plain = train_logistic(X, y)
    ridged = train_logistic(X, y, {"l2": 1.0})
    assert np.linalg.norm(ridged.weights) < np.linalg.norm(plain.weights)


def test_logistic_rejects_bad_input():
    with pytest.raises(DataError):
        train_logistic(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ConfigError):
        train_logistic(np.zeros((5, 2)), np.zeros(5), {"momentum": 0.9})
    with pytest.raises(ConfigError):
        train_logistic(np.zeros((5, 2)), np.zeros(5), {"learning_rate": 0.1})


def test_logistic_converges_on_singular_one_hot_design():
    # the one-hot blocks plus the intercept are collinear, so the Hessian
    # is singular; training must still stop by its tolerance
    transactions = list(generate(GeneratorConfig(seed=11, count=5_000)))
    _, Xtr, ytr = training_matrix(transactions, seed=7)
    model = train_logistic(Xtr, ytr)
    tolerance = model.hyperparameters["tolerance"]
    g_w, g_b = logistic_gradient(Xtr, ytr.astype(np.float64), model.weights, model.bias)
    assert model.n_iters < 50
    assert max(float(np.max(np.abs(g_w))), abs(g_b)) < tolerance


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

def tree_depth(node) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def test_tree_solves_xor_at_depth_two():
    rng = rng_for(21)
    X = rng.integers(0, 2, size=(200, 2)).astype(np.float64)
    y = X[:, 0].astype(bool) ^ X[:, 1].astype(bool)
    model = train_tree(X, y, {"max_depth": 2})
    assert evaluate(predict_proba(model, X), y).accuracy == 1.0
    assert tree_depth(model.trees[0]) <= 2


def exhaustive_root_split(X, y, min_leaf):
    """Scan every (column, midpoint) pair; first strict minimum wins."""
    n = X.shape[0]
    best = None
    for c in range(X.shape[1]):
        vals = np.unique(X[:, c])
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, c] < thr
            n_left = float(mask.sum())
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            pos_left = float(y[mask].sum())
            pos_right = float(y.sum()) - pos_left
            pl = pos_left / n_left
            pr = pos_right / n_right
            g_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
            g_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
            cost = (n_left * g_left + n_right * g_right) / (n_left + n_right)
            if best is None or cost < best[0]:
                best = (cost, c, thr)
    return best


def test_tree_root_matches_exhaustive_search():
    rng = rng_for(33)
    for trial in range(50):
        X = rng.standard_normal((60, 5))
        if trial % 3 == 0:
            X = (X > 0).astype(np.float64)  # exercise the binary fast path too
        y = rng.random(60) > 0.5
        if y.all() or not y.any():
            continue
        model = train_tree(X, y.astype(np.float64), {"min_leaf": 5})
        want = exhaustive_root_split(X, y.astype(np.float64), 5)
        root = model.trees[0]
        if want is None:
            assert root.is_leaf
        else:
            assert (root.column, root.threshold) == (want[1], want[2]), trial


def test_tree_tie_breaks_to_lowest_column():
    rng = rng_for(8)
    col = rng.integers(0, 2, size=100).astype(np.float64)
    X = np.column_stack([col, col, rng.integers(0, 2, size=100)]).astype(np.float64)
    y = col.astype(bool)
    model = train_tree(X, y)
    assert model.trees[0].column == 0  # column 1 is identical; 0 wins the tie


def test_tree_respects_depth_and_min_leaf():
    rng = rng_for(12)
    X = rng.standard_normal((500, 6))
    y = rng.random(500) > 0.5
    model = train_tree(X, y, {"max_depth": 4, "min_leaf": 10})
    assert tree_depth(model.trees[0]) <= 4

    def check(node):
        if node.is_leaf:
            assert node.count >= 10 or node is model.trees[0]
        else:
            check(node.left)
            check(node.right)

    check(model.trees[0])


def test_tree_pure_node_is_leaf():
    X = np.array([[0.0], [1.0], [0.5]])
    y = np.array([True, True, True])
    model = train_tree(X, y)
    assert model.trees[0].is_leaf
    assert model.trees[0].prob == 1.0


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def test_forest_size_and_determinism():
    rng = rng_for(41)
    X = (rng.standard_normal((300, 6)) > 0).astype(np.float64)
    y = rng.random(300) > 0.6
    a = train_forest(X, y, {"n_trees": 12}, seed=5)
    b = train_forest(X, y, {"n_trees": 12}, seed=5)
    c = train_forest(X, y, {"n_trees": 12}, seed=6)
    assert len(a.trees) == 12
    grid = rng.integers(0, 2, size=(50, 6)).astype(np.float64)
    assert np.array_equal(predict_proba(a, grid), predict_proba(b, grid))
    assert not np.array_equal(predict_proba(a, grid), predict_proba(c, grid))


def test_forest_probability_is_mean_of_tree_leaf_fractions():
    rng = rng_for(43)
    X = (rng.standard_normal((200, 5)) > 0).astype(np.float64)
    y = rng.random(200) > 0.5
    model = train_forest(X, y, {"n_trees": 7}, seed=3)
    sample = X[:20]
    assert np.array_equal(predict_proba(model, sample), oracle_forest(model.trees, sample))


def test_forest_degenerate_config_equals_single_tree():
    rng = rng_for(47)
    X = rng.standard_normal((250, 4))
    y = (X[:, 0] > 0.3).astype(bool)
    tree = train_tree(X, y)
    forest = train_forest(
        X,
        y,
        {"n_trees": 1, "bootstrap": False, "features_per_split": 4},
        seed=99,
    )
    probe = rng.standard_normal((100, 4))
    assert np.array_equal(predict_proba(tree, probe), predict_proba(forest, probe))
    # the same tree, node for node: columns, thresholds, counts and leaf values
    grown = json.loads(model_to_json(tree))["parameters"]["root"]
    assert json.loads(model_to_json(forest))["parameters"]["trees"] == [grown]


def test_forest_separates_signal():
    rng = rng_for(53)
    X = rng.integers(0, 2, size=(400, 8)).astype(np.float64)
    y = (X[:, 1] + X[:, 4] >= 2).astype(bool)
    model = train_forest(X, y, {"n_trees": 25}, seed=11)
    assert evaluate(predict_proba(model, X), y).accuracy > 0.97


# ---------------------------------------------------------------------------
# training on distinct rows
# ---------------------------------------------------------------------------

# The reference grower: it scans every sampled row, one column at a time.
# Growing on distinct rows with counts must give the same trees, byte for
# byte, because every split sum adds whole counts.

def reference_split_on_column(x, y, min_leaf, binary):
    n = x.shape[0]
    if binary:
        n_right = float(x.sum())
        n_left = n - n_right
        if n_left < min_leaf or n_right < min_leaf:
            return None
        pos_right = float(x @ y)
        pos_left = float(y.sum()) - pos_right
        pl, pr = pos_left / n_left, pos_right / n_right
        g_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
        g_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
        return (n_left * g_left + n_right * g_right) / (n_left + n_right), 0.5
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    boundaries = np.flatnonzero(xs[1:] != xs[:-1])
    if boundaries.size == 0:
        return None
    n_left = boundaries + 1.0
    n_right = n - n_left
    valid = (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    boundaries, n_left, n_right = boundaries[valid], n_left[valid], n_right[valid]
    cum_pos = np.cumsum(ys)
    pos_left = cum_pos[boundaries]
    pos_right = cum_pos[-1] - pos_left
    pl, pr = pos_left / n_left, pos_right / n_right
    g_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    g_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    costs = (n_left * g_left + n_right * g_right) / (n_left + n_right)
    best = int(np.argmin(costs))
    return float(costs[best]), float((xs[boundaries[best]] + xs[boundaries[best] + 1]) / 2.0)


def reference_tree(X, y, idx, depth, max_depth, min_leaf, rng, features_per_split, binary_cols):
    n = idx.size
    y_node = y[idx]
    pos = float(y_node.sum())
    node = RefNode(prob=pos / n, count=int(n))
    if pos == 0.0 or pos == n or depth >= max_depth or n < 2 * min_leaf:
        return node
    width = X.shape[1]
    if features_per_split is not None and features_per_split < width:
        cols = np.sort(rng.choice(width, size=features_per_split, replace=False))
    else:
        cols = range(width)
    best = None
    for c in cols:
        found = reference_split_on_column(X[idx, c], y_node, min_leaf, binary_cols[c])
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], int(c), found[1])
    if best is None:
        return node
    _, node.column, node.threshold = best
    mask = X[idx, node.column] < node.threshold
    args = (depth + 1, max_depth, min_leaf, rng, features_per_split, binary_cols)
    node.left = reference_tree(X, y, idx[mask], *args)
    node.right = reference_tree(X, y, idx[~mask], *args)
    return node


def reference_model_json(model, X, y):
    """``model`` with its trees regrown row by row, serialized."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    n, width = X.shape
    hyper = model.hyperparameters
    bootstrap = model.kind == "random_forest" and hyper["bootstrap"]
    k = hyper.get("features_per_split", width)
    binary_cols = [bool(np.all((X[:, c] == 0.0) | (X[:, c] == 1.0))) for c in range(width)]
    trees = []
    for t in range(len(model.trees)):
        rng = np.random.Generator(np.random.PCG64(model.train_seed + t))
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(reference_tree(
            X, y, idx, 0, hyper["max_depth"], hyper["min_leaf"], rng, k, binary_cols
        ))
    return model_to_json(tree_model(
        model.kind, trees, width, hyper, schema_hash=model.schema_hash, train_seed=model.train_seed
    ))


def repeated_rows_fixture(seed):
    """Few distinct rows, many repeats: three one-hot fields, one real-valued
    column with ties and one with few levels; a repeated row can carry
    either label."""
    rng = rng_for(seed)
    X, _ = one_hot_fixture(n=int(rng.integers(15, 40)), seed=seed)
    X = np.column_stack([X, rng.standard_normal(X.shape[0]), rng.integers(0, 4, X.shape[0]) / 4])
    X[rng.random(X.shape[0]) < 0.3, -2] = 0.5  # ties on the real-valued column
    rows = rng.integers(0, X.shape[0], size=int(rng.integers(100, 400)))
    lean = rng.random(X.shape[0])
    y = rng.random(rows.size) < lean[rows]
    return X[rows], y


def test_trees_on_distinct_rows_equal_the_row_wise_reference():
    for seed in range(12):
        X, y = repeated_rows_fixture(1000 + seed)
        min_leaf = (1, 2, 5)[seed % 3]
        max_depth = (3, 12)[seed % 2]
        tree = train_tree(X, y, {"max_depth": max_depth, "min_leaf": min_leaf})
        assert model_to_json(tree) == reference_model_json(tree, X, y), seed
        for hyper in (
            {"n_trees": 6, "bootstrap": True, "features_per_split": 3},
            {"n_trees": 3, "bootstrap": False, "features_per_split": 2},
            {"n_trees": 4, "bootstrap": True, "features_per_split": None},
            {"n_trees": 2, "bootstrap": True, "features_per_split": X.shape[1]},
        ):
            hyper = dict(hyper, max_depth=max_depth, min_leaf=min_leaf)
            forest = train_forest(X, y, hyper, seed=seed)
            assert model_to_json(forest) == reference_model_json(forest, X, y), (seed, hyper)


# The recursive grower that grew one tree at a time, each node by its own
# split search, before the trees grew in lockstep from histograms; the
# lockstep grower must give the same node arrays.

def recursive_best_split(Xu, rows, counts, n, pos, cols, min_leaf, binary_cols):
    costs = np.full(cols.size, np.inf)
    thresholds = np.full(cols.size, 0.5)
    binary = binary_cols[cols]
    if binary.any():
        ones_cols = cols[binary]
        right = np.zeros((2, ones_cols.size))  # ones go right of the 0.5 threshold
        for start in range(0, rows.size, 512):
            part = slice(start, start + 512)
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
            costs[i], thresholds[i] = found[:2]
    if not np.any(costs < np.inf):
        return None
    best = int(np.argmin(costs))  # first minimum -> lowest column
    return int(cols[best]), float(thresholds[best])


class ReferenceNodes(_Nodes):
    """_Nodes appended to one node at a time, as the recursive reference
    grower and loader below number them."""

    def add(self, prob, count, depth):
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

    def split(self, i, column, threshold):
        """Make node i, whose left subtree was just appended, an inner node
        whose right child is the next node appended."""
        self.feature[i], self.threshold[i] = column, threshold
        self.children[2 * i:2 * i + 2] = (i + 1, len(self.value))


def recursive_load_node(nodes, data, depth, width):
    """Format 1's nested node ``data`` and its subtree appended to
    ``nodes`` by recursion, with the loader's checks in its order."""
    if type(data["count"]) is not int:
        raise DataError(f"tree node count {data['count']!r} is not an integer")
    i = nodes.add(_finite(data["prob"], "tree node prob"), data["count"], depth)
    if "column" in data:
        column = data["column"]
        if type(column) is not int or not 0 <= column < width:
            raise DataError(f"tree node column {column!r} is not in [0, {width})")
        threshold = _finite(data["threshold"], "tree node threshold")
        recursive_load_node(nodes, data["left"], depth + 1, width)
        nodes.split(i, column, threshold)
        recursive_load_node(nodes, data["right"], depth + 1, width)


def recursive_load(blob):
    """The trees of a tree blob's JSON object, loaded by recursion."""
    params = blob["parameters"]
    nodes = ReferenceNodes()
    for tree in [params["root"]] if blob["kind"] == "decision_tree" else params["trees"]:
        recursive_load_node(nodes, tree, 0, blob["width"])
    return nodes.trees()


def recursive_grow_tree(nodes, Xu, rows, counts, depth, max_depth, min_leaf, rng,
                        features_per_split, binary_cols):
    n, pos = (float(total) for total in counts.sum(axis=1))
    i = nodes.add(pos / n, int(n), depth)
    if pos == 0.0 or pos == n or depth >= max_depth or n < 2 * min_leaf:
        return
    width = Xu.shape[1]
    if features_per_split is not None:
        cols = np.sort(rng.choice(width, size=features_per_split, replace=False))
    else:
        cols = np.arange(width)
    split = recursive_best_split(Xu, rows, counts, n, pos, cols, min_leaf, binary_cols)
    if split is None:
        return
    column, threshold = split
    left = Xu[rows, column] < threshold
    below = (depth + 1, max_depth, min_leaf, rng, features_per_split, binary_cols)
    recursive_grow_tree(nodes, Xu, rows[left], counts[:, left], *below)
    nodes.split(i, column, threshold)
    recursive_grow_tree(nodes, Xu, rows[~left], counts[:, ~left], *below)


def recursive_trees(data, hyper, n_trees, bootstrap, features_per_split, seed):
    Xu = data.X[data.first]
    n, distinct = data.inverse.size, data.y.size
    sampled = features_per_split if features_per_split < Xu.shape[1] else None
    binary_cols = np.all((Xu == 0.0) | (Xu == 1.0), axis=0)
    nodes = ReferenceNodes()
    for t in range(n_trees):
        rng = np.random.Generator(np.random.PCG64(seed + t))
        if bootstrap:
            counts = np.bincount(data.inverse[rng.integers(0, n, size=n)], minlength=distinct)
        else:
            counts = data.counts
        rows = np.flatnonzero(counts)
        w = counts[rows].astype(np.float64)
        recursive_grow_tree(nodes, Xu, rows, np.stack((w, w * data.y[rows])), 0,
                            hyper["max_depth"], hyper["min_leaf"], rng, sampled, binary_cols)
    return nodes.trees()


def assert_same_trees(grown, expected, context):
    for name in ("feature", "threshold", "children", "value", "count", "roots"):
        a, b = getattr(grown, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (context, name)
    assert grown.depth == expected.depth, context


# 1 + 2**-52 and the next float after it: their midpoint rounds to the
# larger, so a split between them has a threshold equal to a value
LOW, HIGH = 1.0 + 2.0**-52, 1.0 + 2.0**-51


def mixed_rows_fixture(seed):
    """repeated_rows_fixture with, in front, a column of LOW and HIGH that
    leans on the label, so that trees split on it."""
    X, y = repeated_rows_fixture(seed)
    high = rng_for(seed).random(y.size) < np.where(y, 0.8, 0.2)
    return np.column_stack([np.where(high, HIGH, LOW), X]), y


def test_lockstep_growth_equals_the_recursive_reference():
    split_at_a_value = False
    for seed in range(6):
        X, y = mixed_rows_fixture(2000 + seed)
        data = training_set(X, y)
        width = X.shape[1]
        for max_depth, min_leaf in ((12, 1), (2, 1), (12, 3), (4, 5)):
            hyper = {"max_depth": max_depth, "min_leaf": min_leaf}
            for n_trees, bootstrap, k in (
                (1, False, width), (5, True, 3), (3, False, 2), (4, True, width), (2, True, width - 1),
            ):
                grown = _grow_trees(data, hyper, n_trees, bootstrap, k, seed)
                expected = recursive_trees(data, hyper, n_trees, bootstrap, k, seed)
                assert_same_trees(grown, expected, (seed, hyper, n_trees, bootstrap, k))
                inner = grown.children[0::2] != np.arange(grown.value.size)
                split_at_a_value |= bool(np.any(grown.threshold[inner & (grown.feature == 0)] == HIGH))
    assert split_at_a_value


def test_lockstep_growth_on_codes_equals_the_recursive_reference_on_the_matrix():
    transactions = list(generate(GeneratorConfig(seed=7, count=3_000)))
    schema, codes, y, *_, over = _prepare_training(records_of(transactions).columns, seed=7)
    data = training_set(FieldCodes(codes.codes[:, over], codes.sizes), y[over])
    matrix = training_set(FieldCodes(codes.codes[:, over], codes.sizes).one_hot(), y[over])
    for hyper, n_trees, bootstrap, k in (
        (TREE_DEFAULTS, 1, False, schema.total_width),
        (FOREST_DEFAULTS, 10, True, 8),
    ):
        expected = recursive_trees(matrix, hyper, n_trees, bootstrap, k, seed=3)
        assert_same_trees(_grow_trees(data, hyper, n_trees, bootstrap, k, seed=3), expected, k)
        assert_same_trees(_grow_trees(matrix, hyper, n_trees, bootstrap, k, seed=3), expected, k)


@pytest.mark.parametrize("count, seed", [(3_000, 7), (20_000, 1)])
def test_code_collapse_groups_as_distinct_rows_of_the_matrix(count, seed):
    transactions = list(generate(GeneratorConfig(seed=seed, count=count)))
    _, codes, y, *_, over = _prepare_training(records_of(transactions).columns, seed)
    Xtr = FieldCodes(codes.codes[:, over], codes.sizes).one_hot()
    first, inverse = _distinct_rows(Xtr, y[over].astype(np.float64))
    data = training_set(FieldCodes(codes.codes[:, over], codes.sizes), y[over])
    assert np.array_equal(data.inverse, inverse)
    # each group's first row, as _distinct_rows picks it
    assert np.array_equal(np.unique(data.inverse, return_index=True)[1], first)
    assert np.array_equal(data.X[data.first], Xtr[first])
    assert np.array_equal(data.y, y[over][first])
    assert np.array_equal(data.counts, np.bincount(inverse))


def test_fit_kinds_models_equal_train_on_the_matrix(tmp_path):
    columns = records_of(generate(GeneratorConfig(seed=7, count=3_000))).columns
    ws = Workspace(PipelineConfig(data_dir=str(tmp_path)))
    _, fitted = _fit_kinds(ws, columns, MODEL_KINDS, seed=7)
    schema, codes, y, _, idx_val, idx_test, over = _prepare_training(columns, seed=7)
    X = codes.one_hot()
    Xtr, ytr = X[over], y[over]
    expected = [
        train_logistic(Xtr, ytr, schema_hash=schema.schema_hash),
        train_tree(Xtr, ytr, schema_hash=schema.schema_hash),
        train_forest(Xtr, ytr, schema_hash=schema.schema_hash, seed=7 + FOREST_SEED_OFFSET),
    ]
    threshold = ws.config.stream.alert_threshold
    for (model, validation, test), want in zip(fitted, expected):
        assert model_to_json(model) == model_to_json(want), model.kind
        # scored from codes as the one-hot stepper scores the rows
        assert validation == evaluate(predict_proba(want, X[idx_val]), y[idx_val], threshold)
        assert test == evaluate(predict_proba(want, X[idx_test]), y[idx_test], threshold)


# sha256 of model_to_json for the tree and the forest fitted on 3,000
# generated rows at seed 7, as the row-wise grower wrote them
PINNED_TREE_SHA256 = "fae41420a74b6fde5e34e1e9f798fcd92b6a81c30bd609096d7dbaa299d22e01"
PINNED_FOREST_SHA256 = "84dcaae4433bc895fb4a9a4ed90944dc7d8b93dbf510203b36a6d3414188e5f5"


def test_tree_and_forest_bytes_are_pinned():
    transactions = list(generate(GeneratorConfig(seed=7, count=3_000)))
    schema, Xtr, ytr = training_matrix(transactions, seed=7)
    tree = train_tree(Xtr, ytr, schema_hash=schema.schema_hash)
    forest = train_forest(Xtr, ytr, schema_hash=schema.schema_hash, seed=7 + FOREST_SEED_OFFSET)
    assert hashlib.sha256(model_to_json(tree).encode()).hexdigest() == PINNED_TREE_SHA256
    assert hashlib.sha256(model_to_json(forest).encode()).hexdigest() == PINNED_FOREST_SHA256


def test_training_allocates_under_a_quarter_of_the_matrix():
    # the oversampled default training set: about 24k rows, 2.7k distinct
    transactions = list(generate(GeneratorConfig(seed=1, count=20_000)))
    _, Xtr, ytr = training_matrix(transactions, seed=1)
    del transactions
    for train in (train_logistic, train_tree, train_forest):
        tracemalloc.start()
        try:
            train(Xtr, ytr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < Xtr.nbytes / 4, (train.__name__, peak, Xtr.nbytes)


def test_logistic_on_repeated_rows_equals_the_row_wise_objective():
    # the counted fit minimises the mean loss over every input row
    X, y = repeated_rows_fixture(77)
    model = train_logistic(X, y, {"l2": 0.01})
    g_w, g_b = logistic_gradient(X, y.astype(np.float64), model.weights, model.bias, 0.01)
    assert max(float(np.max(np.abs(g_w))), abs(g_b)) < model.hyperparameters["tolerance"]
    final = logistic_loss(X, y.astype(np.float64), model.weights, model.bias, 0.01)
    assert math.isclose(final, model.loss_history[-1], rel_tol=1e-12)


@pytest.mark.parametrize(
    "train, hyper",
    [
        (train_tree, {"min_leaf": 0}),
        (train_tree, {"max_depth": -1}),
        (train_forest, {"features_per_split": 0}),
        (train_forest, {"features_per_split": -2}),
        (train_forest, {"n_trees": 0}),
        (train_forest, {"min_leaf": 0}),
        (train_logistic, {"max_iters": -1}),
        (train_logistic, {"tolerance": -1e-6}),
        (train_logistic, {"l2": float("nan")}),
    ],
)
def test_out_of_range_hyperparameters_are_rejected(train, hyper):
    X, y = one_hot_fixture(n=60, seed=5)
    with pytest.raises(ConfigError, match=next(iter(hyper))):
        train(X, y, hyper)


# ---------------------------------------------------------------------------
# prediction and evaluation
# ---------------------------------------------------------------------------

def test_predict_width_mismatch():
    X, y = separable_fixture()
    model = train_logistic(X, y)
    with pytest.raises(SchemaMismatchError):
        predict_proba(model, np.zeros((3, 5)))


def test_predict_single_equals_batch():
    X, y = separable_fixture(seed=61)
    for model in (
        train_logistic(X, y),
        train_tree(X, y),
        train_forest(X, y, {"n_trees": 5}, seed=1),
    ):
        batch = predict_proba(model, X)
        for i in (0, 7, 99, 150):
            single = predict_proba(model, X[i])
            assert single.shape == (1,)
            assert single[0] == batch[i], model.kind


def test_predict_single_equals_batch_on_large_forest():
    # 50 leaf values per row: a sum whose order followed the batch shape
    # would differ in the last bit between one row and a batch
    X, y = one_hot_fixture(seed=62)
    model = train_forest(X, y, {"n_trees": 50, "min_leaf": 2}, seed=4)
    batch = predict_proba(model, X)
    single = np.array([predict_proba(model, row)[0] for row in X])
    assert np.array_equal(single, batch)
    assert np.array_equal(batch, oracle_forest(model.trees, X))


def hand_model(kind, *trees, width=2):
    return tree_model(kind, trees, width)


def split(column, threshold, left, right):
    return RefNode(prob=(left.prob + right.prob) / 2, count=2, column=column,
                   threshold=threshold, left=left, right=right)


def leaf(prob):
    return RefNode(prob=prob, count=1)


def test_tree_value_equal_to_threshold_goes_right():
    model = hand_model("decision_tree", split(1, 0.25, leaf(0.125), leaf(0.875)))
    X = np.array([[9.0, 0.25], [9.0, np.nextafter(0.25, 0.0)], [-9.0, 0.3]])
    assert predict_proba(model, X).tolist() == [0.875, 0.125, 0.875]


def test_tree_on_real_valued_columns_matches_walk():
    rng = rng_for(64)
    X = rng.standard_normal((300, 4))
    y = rng.random(300) < 0.3 + 0.4 * (X[:, 2] > 0.5)
    model = train_tree(X, y, {"max_depth": 6, "min_leaf": 3})
    # probe at the thresholds themselves, and just below and above them
    thresholds = []
    stack = [model.trees[0]]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            thresholds.append((node.column, node.threshold))
            stack += [node.left, node.right]
    probe = np.repeat(X[:len(thresholds)], 3, axis=0)
    for i, (column, threshold) in enumerate(thresholds):
        for j, value in enumerate((np.nextafter(threshold, -np.inf), threshold,
                                   np.nextafter(threshold, np.inf))):
            probe[3 * i + j, column] = value
    probe = np.vstack([probe, X])
    assert np.array_equal(predict_proba(model, probe), oracle_forest(model.trees, probe))


def test_tree_whose_root_is_a_leaf():
    model = hand_model("decision_tree", leaf(0.375))
    assert predict_proba(model, np.zeros((5, 2))).tolist() == [0.375] * 5
    trained = train_tree(np.array([[0.0], [1.0]]), np.array([False, False]))
    assert trained.trees[0].is_leaf
    assert predict_proba(trained, np.array([[0.0], [7.0]])).tolist() == [0.0, 0.0]


def test_forest_with_unequal_tree_depths():
    deep = split(0, 0.5, split(1, 0.5, leaf(0.0), split(0, 0.25, leaf(0.25), leaf(0.5))), leaf(1.0))
    trees = (leaf(0.75), split(1, 0.5, leaf(0.125), leaf(0.625)), deep)
    model = hand_model("random_forest", *trees)
    grid = np.array([[a, b] for a in (0.0, 0.25, 0.3, 0.5, 0.9) for b in (0.0, 0.5, 1.0)])
    assert np.array_equal(predict_proba(model, grid), oracle_forest(trees, grid))


def test_predict_zero_rows():
    X, y = separable_fixture(seed=65)
    for model in (
        train_logistic(X, y),
        train_tree(X, y),
        train_forest(X, y, {"n_trees": 3}, seed=1),
    ):
        assert predict_proba(model, np.zeros((0, 2))).shape == (0,), model.kind


def test_logistic_probability_formula():
    model = train_logistic(*separable_fixture(seed=71))
    x = np.array([0.5, -1.0])
    want = 1.0 / (1.0 + np.exp(-(float(np.dot(model.weights, x)) + model.bias)))
    assert predict_proba(model, x)[0] == pytest.approx(want, rel=1e-12)


def counting_oracle(p, t, threshold):
    tp = tn = fp = fn = 0
    for pi, ti in zip(p, t):
        pred = pi >= threshold
        if pred and ti:
            tp += 1
        elif pred and not ti:
            fp += 1
        elif not pred and ti:
            fn += 1
        else:
            tn += 1
    acc = (tp + tn) / len(p)
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    return tn, fp, fn, tp, acc, f1


def test_evaluate_matches_counting_oracle():
    rng = rng_for(73)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        p = rng.random(n)
        t = rng.random(n) > 0.5
        threshold = float(rng.random())
        m = evaluate(p, t, threshold)
        tn, fp, fn, tp, acc, f1 = counting_oracle(p, t, threshold)
        assert (m.tn, m.fp, m.fn, m.tp) == (tn, fp, fn, tp)
        assert m.accuracy == acc
        assert m.f1 == f1


def test_evaluate_permutation_invariant():
    rng = rng_for(79)
    p = rng.random(500)
    t = rng.random(500) > 0.7
    perm = rng.permutation(500)
    assert evaluate(p, t) == evaluate(p[perm], t[perm])


def test_evaluate_f1_zero_convention():
    m = evaluate(np.array([0.1, 0.2]), np.array([False, False]))
    assert m.f1 == 0.0
    assert m.accuracy == 1.0
    with pytest.raises(DataError):
        evaluate(np.array([]), np.array([]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# scoring from category codes
# ---------------------------------------------------------------------------

FIELD_SIZES = (12, 12, 15, 15, 7)  # the default schema's five vocabularies


def code_fixture(n, seed, sizes=FIELD_SIZES):
    """FieldCodes of ``n`` rows with a label that leans on two fields."""
    rng = rng_for(seed)
    codes = np.stack([rng.integers(0, k, size=n) for k in sizes])
    y = rng.random(n) < 0.2 + 0.3 * (codes[0] < 3) + 0.3 * (codes[4] == 1)
    return FieldCodes(codes, sizes), y


def with_unseen(codes: FieldCodes, seed) -> FieldCodes:
    """``codes`` with about a fifth of each field's values unseen (-1),
    and one row per field unseen in that field alone."""
    out = codes.codes.copy()
    out[rng_for(seed).random(out.shape) < 0.2] = -1
    for f in range(out.shape[0]):
        out[:, f] = codes.codes[:, f]
        out[f, f] = -1
    return FieldCodes(out, codes.sizes)


def assert_codes_score_as_one_hot(model, codes: FieldCodes):
    """The code scorer equals one-hot scoring bit for bit, for the batch
    and for each row alone."""
    want = predict_proba(model, codes.one_hot())
    assert np.array_equal(predict_proba(model, codes), want)
    for i in range(min(codes.codes.shape[1], 40)):
        one = FieldCodes(codes.codes[:, i:i + 1], codes.sizes)
        assert predict_proba(model, one).tolist() == [want[i]]


def count_leaves(node):
    return 1 if node.is_leaf else count_leaves(node.left) + count_leaves(node.right)


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
def test_code_scores_equal_one_hot_scores(kind):
    codes, y = code_fixture(600, seed=90)
    X = codes.one_hot()
    if kind == "decision_tree":
        model = train_tree(X, y, {"min_leaf": 2})
    else:
        model = train_forest(X, y, {"n_trees": 50, "min_leaf": 2}, seed=3)
    probe, _ = code_fixture(300, seed=91)
    assert_codes_score_as_one_hot(model, probe)
    assert_codes_score_as_one_hot(model, with_unseen(probe, seed=92))
    everything_unseen = FieldCodes(np.full((5, 3), -1), FIELD_SIZES)
    assert_codes_score_as_one_hot(model, everything_unseen)
    no_rows = FieldCodes(np.zeros((5, 0), dtype=np.int64), FIELD_SIZES)
    assert predict_proba(model, no_rows).shape == (0,)


def test_code_scores_of_a_root_only_tree():
    width = sum(FIELD_SIZES)
    codes, _ = code_fixture(20, seed=93)
    for model in (
        hand_model("decision_tree", leaf(0.375), width=width),
        hand_model("random_forest", leaf(0.25), split(3, 0.5, leaf(0.5), leaf(1.0)), leaf(0.0),
                   width=width),
    ):
        assert_codes_score_as_one_hot(model, with_unseen(codes, seed=94))


def test_code_scores_of_a_tree_with_masks_of_several_words():
    codes, y = code_fixture(4000, seed=95)
    model = train_tree(codes.one_hot(), y, {"min_leaf": 1})
    assert count_leaves(model.trees[0]) > 128  # three or more 64-leaf words
    probe, _ = code_fixture(500, seed=96)
    assert_codes_score_as_one_hot(model, with_unseen(probe, seed=97))
    assert_codes_score_as_one_hot(model, codes)


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
def test_code_scores_of_a_loaded_blob_with_edited_thresholds(kind):
    codes, y = code_fixture(600, seed=98)
    X = codes.one_hot()
    if kind == "decision_tree":
        trained = train_tree(X, y, {"min_leaf": 2})
    else:
        trained = train_forest(X, y, {"n_trees": 10, "min_leaf": 2}, seed=4)
    blob = json.loads(model_to_json(trained))
    edits = iter(np.resize([0.0, 1.0, 0.25, 1.5, -0.5], 100_000).tolist())
    params = blob["parameters"]
    stack = list(params["trees"]) if kind == "random_forest" else [params["root"]]
    while stack:
        node = stack.pop()
        if "threshold" in node:
            node["threshold"] = next(edits)
            stack += [node["left"], node["right"]]
    model = model_from_json(json.dumps(blob))
    probe, _ = code_fixture(300, seed=99)
    probe = with_unseen(probe, seed=100)
    assert_codes_score_as_one_hot(model, probe)
    assert not np.array_equal(predict_proba(model, probe), predict_proba(trained, probe))


def test_code_scores_of_logistic_regression_equal_one_hot_scores():
    codes, y = code_fixture(400, seed=101)
    model = train_logistic(codes.one_hot(), y)
    assert_codes_score_as_one_hot(model, with_unseen(codes, seed=102))


def test_code_width_mismatch():
    codes, y = code_fixture(50, seed=103)
    model = train_tree(codes.one_hot(), y)
    with pytest.raises(SchemaMismatchError):
        predict_proba(model, FieldCodes(codes.codes, (12, 12, 15, 15, 8)))


def test_serialization_round_trip_all_kinds():
    X, y = separable_fixture(seed=83)
    probe = rng_for(84).standard_normal((40, 2))
    for model in (
        train_logistic(X, y, schema_hash="abc123"),
        train_tree(X, y, schema_hash="abc123"),
        train_forest(X, y, {"n_trees": 4}, schema_hash="abc123", seed=2),
    ):
        text = model_to_json(model)
        back = model_from_json(text)
        assert back.kind == model.kind
        assert back.schema_hash == "abc123"
        assert back.hyperparameters == model.hyperparameters
        assert np.array_equal(predict_proba(back, probe), predict_proba(model, probe))
        # serialization is stable: a second round trip is byte-identical
        assert model_to_json(back) == text


def test_reloaded_forest_predicts_bit_identically():
    X, y = one_hot_fixture(seed=86)
    model = train_forest(X, y, {"n_trees": 50, "min_leaf": 2}, seed=9)
    trained = predict_proba(model, X)
    back = model_from_json(model_to_json(model))
    assert np.array_equal(predict_proba(back, X), trained)
    assert np.array_equal([predict_proba(back, row)[0] for row in X[:40]], trained[:40])


# A decision tree blob in serialization format 1, as the format has
# always been written: its one tree sits under "root".
FORMAT_1_TREE = (
    '{"format": 1, "hyperparameters": {"max_depth": 2, "min_leaf": 2}, "kind": "decision_tree", '
    '"parameters": {"root": {"column": 0, "count": 12, "left": {"column": 1, "count": 6, '
    '"left": {"count": 3, "prob": 0.3333333333333333}, "prob": 0.6666666666666666, '
    '"right": {"count": 3, "prob": 1.0}, "threshold": 0.5}, "prob": 0.5833333333333334, '
    '"right": {"column": 1, "count": 6, "left": {"count": 3, "prob": 1.0}, "prob": 0.5, '
    '"right": {"count": 3, "prob": 0.0}, "threshold": 0.5}, "threshold": 0.5}}, '
    '"schema_hash": "abc123", "train_seed": 0, "width": 2}'
)


def test_format_1_decision_tree_loads_predicts_and_rewrites_unchanged():
    model = model_from_json(FORMAT_1_TREE)
    assert model.kind == "decision_tree" and len(model.trees) == 1
    grid = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    assert predict_proba(model, grid).tolist() == [0.3333333333333333, 1.0, 1.0, 0.0]
    assert model_to_json(model) == FORMAT_1_TREE
    # training on the data it was grown from still writes these bytes
    X = np.tile(grid, (3, 1))
    y = np.tile([0.0, 1.0, 1.0, 0.0], 3)
    y[0] = 1.0
    trained = train_tree(X, y, {"max_depth": 2, "min_leaf": 2}, schema_hash="abc123")
    assert model_to_json(trained) == FORMAT_1_TREE


def test_grown_and_loaded_trees_hold_the_same_arrays():
    X, y = one_hot_fixture(seed=88)
    for model in (
        train_tree(X, y, {"min_leaf": 2}),
        train_forest(X, y, {"n_trees": 8, "min_leaf": 2}, seed=5),
    ):
        text = model_to_json(model)
        back = model_from_json(text)
        for name in ("feature", "threshold", "children", "value", "count", "roots"):
            grown, loaded = getattr(model.trees, name), getattr(back.trees, name)
            assert grown.dtype == loaded.dtype and np.array_equal(grown, loaded), (model.kind, name)
        assert back.trees.depth == model.trees.depth
        # walking the node views gives back the blob's nested nodes
        params = json.loads(text)["parameters"]
        blob_trees = [params["root"]] if model.kind == "decision_tree" else params["trees"]
        assert len(model.trees) == len(blob_trees)
        assert [node_dict(root) for root in model.trees] == blob_trees
        assert [node_dict(root) for root in back.trees] == blob_trees


BAD_NODES = [  # (which node of a tree blob, the edit that makes it bad)
    ("root", {"column": 12}),  # the model is 12 columns wide
    ("root", {"column": 999}),
    ("root", {"column": -1}),
    ("root", {"column": 1.5}),
    ("root", {"column": True}),
    ("root", {"column": "0"}),
    ("left", {"threshold": "x"}),
    ("root", {"threshold": float("nan")}),
    ("root", {"threshold": None}),
    ("left", {"prob": float("inf")}),
    ("root", {"prob": "0.5"}),
    ("left", {"count": 2.5}),
    ("root", {"count": False}),
]


def bad_node_blob(where, edit):
    X, y = one_hot_fixture(seed=87)
    blob = json.loads(model_to_json(train_tree(X, y)))
    root = blob["parameters"]["root"]
    node = root if where == "root" else root["left"]
    assert "column" in node  # an inner node: every field is read
    node.update(edit)
    return blob


@pytest.mark.parametrize("where, edit", BAD_NODES)
def test_tree_blob_with_a_bad_node_is_refused(where, edit):
    blob = bad_node_blob(where, edit)
    with pytest.raises(DataError, match=f"tree node {next(iter(edit))}"):
        model_from_json(json.dumps(blob))


@pytest.mark.parametrize("where, edit", BAD_NODES)
def test_a_bad_node_is_refused_as_the_recursive_loader_refused_it(where, edit):
    blob = bad_node_blob(where, edit)
    with pytest.raises(DataError) as recursive:
        recursive_load(blob)
    with pytest.raises(DataError) as stacked:
        model_from_json(json.dumps(blob))
    assert str(stacked.value) == str(recursive.value)


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
def test_a_blob_loads_into_the_arrays_the_recursive_loader_built(kind):
    X, y = one_hot_fixture(seed=88)
    if kind == "decision_tree":
        model = train_tree(X, y, {"min_leaf": 2})
    else:
        model = train_forest(X, y, {"n_trees": 8, "min_leaf": 2}, seed=5)
    text = model_to_json(model)
    assert_same_trees(model_from_json(text).trees, recursive_load(json.loads(text)), kind)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"weights": [0.5, 0.5, 0.5]}, "not a list of 12 numbers"),  # the model is 12 columns wide
        ({"weights": [0.5] * 13}, "not a list of 12 numbers"),
        ({"weights": {"0": 0.5}}, "not a list of 12 numbers"),
        ({"weights": [0.5] * 11 + [float("nan")]}, "logistic weight nan"),
        ({"weights": [0.5] * 11 + ["0.5"]}, "logistic weight '0.5'"),
        ({"weights": [0.5] * 11 + [True]}, "logistic weight True"),
        ({"bias": float("inf")}, "logistic bias inf"),
        ({"bias": None}, "logistic bias None"),
    ],
)
def test_logistic_blob_with_bad_parameters_is_refused(edit, message):
    X, y = one_hot_fixture(seed=86)
    blob = json.loads(model_to_json(train_logistic(X, y)))
    blob["parameters"].update(edit)
    with pytest.raises(DataError, match=message):
        model_from_json(json.dumps(blob))


def test_forest_blob_without_trees_is_refused():
    X, y = separable_fixture(seed=89)
    blob = json.loads(model_to_json(train_forest(X, y, {"n_trees": 2}, seed=1)))
    blob["parameters"]["trees"] = []
    with pytest.raises(DataError, match="no tree"):
        model_from_json(json.dumps(blob))


def test_serialization_rejects_unknown_format():
    X, y = separable_fixture(seed=85)
    text = model_to_json(train_tree(X, y)).replace('"format": 1', '"format": 99')
    with pytest.raises(DataError):
        model_from_json(text)
