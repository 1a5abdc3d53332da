"""CART-style regression tree for vector targets.

Splits greedily minimize the summed per-output squared error of the two
children. Candidate thresholds are midpoints between consecutive distinct
sorted values; ties between equally good splits go to the lowest feature
index, then the lowest threshold. Leaves predict their mean target.

The grower sorts every column once at the root (stable, int32 row ids)
and hands each child its share of every sorted list, kept in order by a
boolean mask (the presorted attribute lists of CART and SLIQ), so no node
sorts again. A node scans all its columns in passes of about
_PASS_ELEMENTS gathered target values. Each candidate's error comes from
the same float operations, in the same order, as a scan that argsorts
each column at each node, so both grow the same tree to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._inputs import check_fit_inputs

#: Target values (columns x node rows x outputs) gathered per pass of the
#: split scan; smaller passes cost more calls.
_PASS_ELEMENTS = 1 << 16


@dataclass(eq=False)
class TreeNode:
    value: np.ndarray  # (m,) mean target of the node's rows
    n_samples: int
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(eq=False)
class TreeModel:
    root: TreeNode
    n_features: int
    n_outputs: int
    max_depth: int | None
    min_samples_leaf: int


def _presort(X: np.ndarray) -> np.ndarray:
    """(d, n) int32: row j lists the row ids in stable order of column j."""
    n, d = X.shape
    order = np.empty((d, n), dtype=np.int32)
    step = max(1, _PASS_ELEMENTS // n)
    for start in range(0, d, step):
        order[start : start + step] = np.argsort(X[:, start : start + step].T, axis=1,
                                                 kind="stable")
    return order


def _best_split(X: np.ndarray, Y: np.ndarray, order: np.ndarray, min_leaf: int):
    """Best (children_sse, feature, threshold) of a node, or None.

    order[j] holds the node's rows in column j's sorted order. A boundary
    after sorted position p is a candidate where the value changes and
    both sides keep min_leaf rows. The first minimum in column-major order
    wins, which is the lowest feature, then the lowest threshold.
    """
    d, n = order.shape
    lo, hi = min_leaf - 1, n - min_leaf  # candidate positions lo <= p < hi
    best = None
    step = max(1, _PASS_ELEMENTS // (n * Y.shape[1]))
    for start in range(0, d, step):
        ids = order[start : start + step]
        xs = X[ids, np.arange(start, start + len(ids))[:, None]]
        col, pos = np.nonzero(xs[:, lo:hi] < xs[:, lo + 1 : hi + 1])
        if col.size == 0:
            continue
        pos += lo
        ys = np.take(Y, ids, axis=0)
        # prefix sums along each column's order, one (m,) row per position
        cum1 = np.cumsum(ys, axis=1).reshape(-1, ys.shape[2])
        cum2 = np.cumsum(ys * ys, axis=1).reshape(-1, ys.shape[2])
        at, last = col * n + pos, col * n + (n - 1)
        n_left = pos + 1.0
        n_right = n - n_left
        left1 = np.take(cum1, at, axis=0)
        left2 = np.take(cum2, at, axis=0)
        sse_left = (left2 - left1 * left1 / n_left[:, None]).sum(axis=1)
        right1 = np.take(cum1, last, axis=0) - left1
        right2 = np.take(cum2, last, axis=0) - left2
        sse_right = (right2 - right1 * right1 / n_right[:, None]).sum(axis=1)
        sse = np.maximum(sse_left, 0.0) + np.maximum(sse_right, 0.0)

        i = int(np.argmin(sse))
        if best is None or sse[i] < best[0]:
            c, p = col[i], pos[i]
            a, b = xs[c, p], xs[c, p + 1]
            t = (a + b) / 2.0
            if t >= b:  # adjacent floats can round the midpoint up; keep a <= t < b
                t = a
            best = (float(sse[i]), start + int(c), float(t))
    return best


def _node_sse(Y: np.ndarray) -> float:
    tot1 = Y.sum(axis=0)
    tot2 = (Y * Y).sum(axis=0)
    return float(np.maximum(tot2 - tot1 * tot1 / Y.shape[0], 0.0).sum())


def _node(Y: np.ndarray, depth: int, max_depth: int | None, min_leaf: int):
    """A leaf for the node whose targets are Y, and its squared error if
    it may still split (None when it may not)."""
    node = TreeNode(value=Y.mean(axis=0), n_samples=Y.shape[0])
    if max_depth is not None and depth >= max_depth:
        return node, None
    if Y.shape[0] < 2 * min_leaf or np.all(Y == Y[0]):
        return node, None
    return node, _node_sse(Y)


def _grow(X, Y, max_depth, min_leaf) -> TreeNode:
    """Grow depth first from an explicit stack of open nodes."""
    root, sse = _node(Y, 0, max_depth, min_leaf)
    if sse is None:
        return root
    goes_left = np.empty(X.shape[0], dtype=bool)  # indexed by row id
    stack = [(root, sse, np.arange(X.shape[0]), _presort(X), 0)]
    while stack:
        node, sse, rows, order, depth = stack.pop()
        found = _best_split(X, Y, order, min_leaf)
        if found is None or found[0] >= sse:
            continue  # no error reduction
        _, node.feature, node.threshold = found
        left = X[rows, node.feature] <= node.threshold
        node.left, left_sse = _node(Y[rows[left]], depth + 1, max_depth, min_leaf)
        node.right, right_sse = _node(Y[rows[~left]], depth + 1, max_depth, min_leaf)
        if left_sse is None and right_sse is None:
            continue
        goes_left[rows] = left
        in_left = goes_left[order]
        # the left child goes on top, so it grows first
        if right_sse is not None:
            stack.append((node.right, right_sse, rows[~left],
                          order[~in_left].reshape(len(order), -1), depth + 1))
        if left_sse is not None:
            stack.append((node.left, left_sse, rows[left],
                          order[in_left].reshape(len(order), -1), depth + 1))
    return root


def tree_fit(X, Y, max_depth: int | None = 5, min_samples_leaf: int = 1) -> TreeModel:
    """Grow a regression tree.

    max_depth=None grows until leaves are pure or too small, which makes
    the tree reproduce its training targets exactly when feature rows are
    distinct. Columns are sorted once, at the root; each node scans all of
    them in passes of about _PASS_ELEMENTS target values, and ties go to
    the lowest feature, then the lowest threshold. Depth is bounded by
    memory, not by the recursion limit. NaN or inf in X or Y raises
    ValueError.
    """
    X, Y = check_fit_inputs(X, Y)
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on 0 rows")
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be at least 1, got {min_samples_leaf}")
    root = _grow(X, Y, max_depth, min_samples_leaf)
    return TreeModel(
        root=root,
        n_features=X.shape[1],
        n_outputs=Y.shape[1],
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    )


def tree_predict(model: TreeModel, X) -> np.ndarray:
    """Route rows down the tree and emit leaf means."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"X must be (n, {model.n_features})")
    out = np.empty((X.shape[0], model.n_outputs))
    stack = [(model.root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        go_left = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def tree_depth(model: TreeModel) -> int:
    """Longest root-to-leaf edge count."""
    deepest = 0
    stack = [(model.root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            deepest = max(deepest, depth)
        else:
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest


def flatten_tree(model: TreeModel) -> dict[str, np.ndarray]:
    """Array form (preorder) used by model serialization."""
    features, thresholds, lefts, rights, values, counts = [], [], [], [], [], []
    stack = [(model.root, None, -1)]  # (node, parent's child list, parent id)
    while stack:
        node, links, parent = stack.pop()
        my_id = len(features)
        if links is not None:
            links[parent] = my_id
        features.append(node.feature)
        thresholds.append(node.threshold)
        lefts.append(-1)
        rights.append(-1)
        values.append(node.value)
        counts.append(node.n_samples)
        if not node.is_leaf:
            stack += [(node.right, rights, my_id), (node.left, lefts, my_id)]
    return {
        "feature": np.array(features, dtype=np.int64),
        "threshold": np.array(thresholds, dtype=np.float64),
        "left": np.array(lefts, dtype=np.int64),
        "right": np.array(rights, dtype=np.int64),
        "value": np.stack(values),
        "n_samples": np.array(counts, dtype=np.int64),
    }


def unflatten_tree(arrays: dict[str, np.ndarray], n_features: int,
                   max_depth: int | None, min_samples_leaf: int) -> TreeModel:
    """Rebuild a TreeModel from flatten_tree arrays.

    Raises ValueError when an inner node's children do not come after it
    (preorder), which also rules out cycles.
    """
    nodes = [
        TreeNode(value=value.copy(), n_samples=int(count), feature=int(feature),
                 threshold=float(threshold))
        for value, count, feature, threshold in zip(
            arrays["value"], arrays["n_samples"], arrays["feature"], arrays["threshold"])
    ]
    for i, node in enumerate(nodes):
        if node.is_leaf:
            continue
        left, right = int(arrays["left"][i]), int(arrays["right"][i])
        if not (i < left < len(nodes) and i < right < len(nodes)):
            raise ValueError(f"tree node {i} has children {left} and {right}, not later nodes")
        node.left, node.right = nodes[left], nodes[right]
    return TreeModel(
        root=nodes[0],
        n_features=n_features,
        n_outputs=arrays["value"].shape[1],
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    )
