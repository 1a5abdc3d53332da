import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from conftest import kaggle_size_block
from facekeys.lbp import LbpConfig, lbp_circular
from facekeys.regressors import tree as tree_module
from facekeys.regressors.tree import (
    TreeModel,
    flatten_tree,
    tree_depth,
    tree_fit,
    tree_predict,
)


@dataclass(eq=False)
class Node:
    """One node of the reference grower's object graph."""

    value: np.ndarray  # (m,) mean target of the node's rows
    n_samples: int
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None


def preorder_arrays(root: Node) -> dict[str, np.ndarray]:
    """The node arrays of a graph in preorder: node, left subtree, right subtree."""
    features, thresholds, lefts, rights, values, counts = [], [], [], [], [], []
    stack = [(root, None, -1)]  # (node, parent's child list, parent id)
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
        if node.feature >= 0:
            stack += [(node.right, rights, my_id), (node.left, lefts, my_id)]
    return {
        "feature": np.array(features, dtype=np.int64),
        "threshold": np.array(thresholds, dtype=np.float64),
        "left": np.array(lefts, dtype=np.int64),
        "right": np.array(rights, dtype=np.int64),
        "value": np.stack(values),
        "n_samples": np.array(counts, dtype=np.int64),
    }


def reference_sse_split_scan(x, Y, min_leaf):
    """Best split of one column, or None: argsort, then prefix sums.

    Returns (children_sse, threshold) minimizing summed child squared error.
    """
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    boundaries = np.nonzero(xs[:-1] < xs[1:])[0]  # split after position i
    if boundaries.size == 0:
        return None
    n_left = boundaries + 1
    n_right = n - n_left
    ok = (n_left >= min_leaf) & (n_right >= min_leaf)
    boundaries = boundaries[ok]
    if boundaries.size == 0:
        return None
    n_left = n_left[ok]
    n_right = n_right[ok]

    ys = Y[order]
    cum1 = np.cumsum(ys, axis=0)
    cum2 = np.cumsum(ys * ys, axis=0)
    tot1 = cum1[-1]
    tot2 = cum2[-1]
    left1 = cum1[boundaries]
    left2 = cum2[boundaries]
    sse_left = (left2 - left1 * left1 / n_left[:, None]).sum(axis=1)
    right1 = tot1 - left1
    right2 = tot2 - left2
    sse_right = (right2 - right1 * right1 / n_right[:, None]).sum(axis=1)
    sse = np.maximum(sse_left, 0.0) + np.maximum(sse_right, 0.0)

    best = int(np.argmin(sse))  # first minimum has the lowest threshold
    i = int(boundaries[best])
    a, b = xs[i], xs[i + 1]
    t = (a + b) / 2.0
    if t >= b:
        t = a
    return float(sse[best]), float(t)


def reference_best_split(X, Y, min_leaf):
    best = None
    for j in range(X.shape[1]):
        found = reference_sse_split_scan(X[:, j], Y, min_leaf)
        if found is None:
            continue
        sse, t = found
        if best is None or sse < best[0]:
            best = (sse, j, t)
    return best


def reference_grow(X, Y, depth, max_depth, min_leaf) -> Node:
    node = Node(value=Y.mean(axis=0), n_samples=X.shape[0])
    if max_depth is not None and depth >= max_depth:
        return node
    if X.shape[0] < 2 * min_leaf:
        return node
    if np.all(Y == Y[0]):
        return node
    found = reference_best_split(X, Y, min_leaf)
    if found is None:
        return node
    sse_children, j, t = found
    if sse_children >= tree_module._node_sse(Y):
        return node
    left_mask = X[:, j] <= t
    node.feature = j
    node.threshold = t
    node.left = reference_grow(X[left_mask], Y[left_mask], depth + 1, max_depth, min_leaf)
    node.right = reference_grow(X[~left_mask], Y[~left_mask], depth + 1, max_depth, min_leaf)
    return node


def reference_tree_fit(X, Y, max_depth=5, min_samples_leaf=1) -> dict[str, np.ndarray]:
    """The recursive grower with one argsort per column per node, as
    preorder node arrays."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    return preorder_arrays(reference_grow(X, Y, 0, max_depth, min_samples_leaf))


def oracle_greedy_loss(X, Y, max_depth, min_leaf=1) -> float:
    """Training SSE of a greedy tree grown by exhaustive enumeration.

    Independent reference: recursion over index sets, two-pass SSE, every
    midpoint between consecutive distinct sorted values considered.
    """

    def sse(idx) -> float:
        mu = Y[idx].mean(axis=0)
        return float(((Y[idx] - mu) ** 2).sum())

    def best(idx):
        found = None
        for j in range(X.shape[1]):
            xs = np.unique(X[idx, j])
            for a, b in zip(xs, xs[1:]):
                t = (a + b) / 2.0
                if t >= b:
                    t = a
                left = idx[X[idx, j] <= t]
                right = idx[X[idx, j] > t]
                if len(left) < min_leaf or len(right) < min_leaf:
                    continue
                total = sse(left) + sse(right)
                if found is None or total < found[0]:
                    found = (total, left, right)
        return found

    def grow(idx, depth) -> float:
        node = sse(idx)
        if depth == max_depth or len(idx) < 2 * min_leaf or node == 0.0:
            return node
        found = best(idx)
        if found is None or found[0] >= node:
            return node
        _, left, right = found
        return grow(left, depth + 1) + grow(right, depth + 1)

    return grow(np.arange(X.shape[0]), 0)


def model_loss(model, X, Y) -> float:
    return float(((tree_predict(model, X) - Y) ** 2).sum())


def leaf_sizes(model):
    return model.n_samples[model.feature < 0]


def rebuilt(arrays, n_features=1, max_depth=None, min_samples_leaf=1) -> TreeModel:
    """A TreeModel built from copies of node arrays."""
    return TreeModel(**{name: arr.copy() for name, arr in arrays.items()},
                     n_features=n_features, max_depth=max_depth,
                     min_samples_leaf=min_samples_leaf)


def test_single_split_hand_fixture():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    Y = np.array([0.0, 0.0, 10.0, 10.0])
    model = tree_fit(X, Y, max_depth=5)
    assert tree_depth(model) == 1
    assert model.feature[0] == 0
    assert model.threshold[0] == 1.5
    assert np.allclose(model.value[model.left[0]], [0.0])
    assert np.allclose(model.value[model.right[0]], [10.0])
    preds = tree_predict(model, [[0.5], [1.5], [2.9]])
    # values at the threshold route left
    assert np.allclose(preds[:, 0], [0.0, 0.0, 10.0])


def test_constant_target_is_single_leaf():
    X = np.arange(8.0)[:, None]
    model = tree_fit(X, np.full(8, 3.25), max_depth=None)
    assert model.feature.tolist() == [-1]
    assert tree_depth(model) == 0
    assert np.allclose(tree_predict(model, X), 3.25)


def test_unlimited_depth_memorizes_distinct_rows():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    Y = rng.normal(size=(40, 2))
    model = tree_fit(X, Y, max_depth=None)
    assert np.allclose(tree_predict(model, X), Y, atol=1e-12)


def test_max_depth_is_respected():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 4))
    Y = rng.normal(size=(60, 1))
    for depth in (0, 1, 2, 3):
        model = tree_fit(X, Y, max_depth=depth)
        assert tree_depth(model) <= depth
    assert tree_fit(X, Y, max_depth=0).feature.tolist() == [-1]


def test_min_samples_leaf_is_respected():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 3))
    Y = rng.normal(size=(50, 1))
    for min_leaf in (1, 3, 10):
        model = tree_fit(X, Y, max_depth=None, min_samples_leaf=min_leaf)
        sizes = leaf_sizes(model)
        assert min(sizes) >= min_leaf
        assert sum(sizes) == 50


def test_matches_exhaustive_oracle_loss():
    rng = np.random.default_rng(3)
    for trial in range(12):
        n = int(rng.integers(6, 16))
        X = rng.normal(size=(n, 3))
        Y = rng.normal(size=(n, 2))
        depth = int(rng.integers(1, 3))
        model = tree_fit(X, Y, max_depth=depth)
        assert model_loss(model, X, Y) == pytest.approx(
            oracle_greedy_loss(X, Y, depth), abs=1e-10
        )


def test_split_ties_prefer_lowest_feature():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    Y = np.array([0.0, 0.0, 10.0, 10.0])
    model = tree_fit(X, Y, max_depth=1)
    assert model.feature[0] == 0


def test_split_ties_prefer_lowest_threshold():
    # splitting at 0.5 or 1.5 gives the same summed child error
    X = np.array([[0.0], [1.0], [2.0]])
    Y = np.array([0.0, 10.0, 20.0])
    model = tree_fit(X, Y, max_depth=1)
    assert model.threshold[0] == 0.5


def test_adjacent_float_values_still_partition():
    lo = 1.0
    hi = np.nextafter(lo, 2.0)
    X = np.array([[lo], [hi], [2.0]])
    Y = np.array([0.0, 10.0, 20.0])
    model = tree_fit(X, Y, max_depth=None)
    # every leaf reachable, training data memorized despite midpoint rounding
    assert np.allclose(tree_predict(model, X)[:, 0], Y)
    assert leaf_sizes(model).tolist() == [1, 1, 1]


def test_duplicate_rows_fall_back_to_leaf():
    X = np.ones((5, 2))
    Y = np.arange(5.0)
    model = tree_fit(X, Y, max_depth=None)
    assert model.feature.tolist() == [-1]
    assert np.allclose(model.value[0], [2.0])


def test_no_columns_make_one_leaf_of_the_mean():
    model = tree_fit(np.zeros((5, 0)), np.arange(5.0))
    assert model.feature.tolist() == [-1]
    assert model.value.tolist() == [[2.0]]
    assert tree_predict(model, np.zeros((3, 0))).tolist() == [[2.0]] * 3


def test_multi_output_uses_summed_error():
    # output 0 prefers splitting feature 0; output 1 prefers feature 1 but
    # with a much larger error reduction, so the sum picks feature 1
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    Y = np.column_stack([X[:, 0], 100.0 * X[:, 1]])
    model = tree_fit(X, Y, max_depth=1)
    assert model.feature[0] == 1


def test_flatten_round_trip():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    Y = rng.normal(size=(30, 2))
    model = tree_fit(X, Y, max_depth=4, min_samples_leaf=2)
    arrays = flatten_tree(model)
    back = rebuilt(arrays, model.n_features, model.max_depth, model.min_samples_leaf)
    Q = rng.normal(size=(20, 4))
    assert np.array_equal(tree_predict(back, Q), tree_predict(model, Q))
    again = flatten_tree(back)
    for key in arrays:
        assert np.array_equal(arrays[key], again[key])


@pytest.mark.parametrize("setting, value, least", [
    ("max_depth", 2.5, 0), ("max_depth", 2.0, 0), ("max_depth", True, 0), ("max_depth", "3", 0),
    ("min_samples_leaf", 1.5, 1), ("min_samples_leaf", True, 1), ("min_samples_leaf", np.nan, 1),
], ids=repr)
def test_a_setting_that_is_not_a_count_is_refused(setting, value, least):
    # unchecked, max_depth 2.5 and True fit files that load_model refuses
    X, Y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    with pytest.raises(ValueError) as exc:
        tree_fit(X, Y, **{setting: value})
    assert str(exc.value) == f"{setting} must be an integer >= {least}, got {value!r}"


def test_validation():
    with pytest.raises(ValueError, match="0 rows"):
        tree_fit(np.zeros((0, 2)), np.zeros((0, 1)))
    with pytest.raises(ValueError, match="matching row"):
        tree_fit(np.zeros((3, 2)), np.zeros((4, 1)))
    with pytest.raises(ValueError, match=r"^max_depth must be an integer >= 0, got -1$"):
        tree_fit(np.zeros((3, 2)), np.zeros(3), max_depth=-1)
    with pytest.raises(ValueError, match=r"^min_samples_leaf must be an integer >= 1, got 0$"):
        tree_fit(np.zeros((3, 2)), np.zeros(3), min_samples_leaf=0)
    model = tree_fit(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        tree_predict(model, np.zeros((2, 5)))


def assert_same_tree(model, want):
    got = flatten_tree(model)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key


def _columns(kind, rng, n, d):
    if kind == "float":
        return rng.normal(size=(n, d))
    if kind == "pixels":  # six levels: many ties
        return rng.integers(0, 6, size=(n, d)) / 5
    # pixel-like, with column 1 constant
    X = rng.integers(0, 6, size=(n, d)) / 5
    X[:, 1] = 0.4
    return X


@pytest.mark.parametrize("columns", ["float", "pixels", "constant"])
@pytest.mark.parametrize("min_leaf", [1, 3, 10])
@pytest.mark.parametrize("max_depth", [None, 0, 5])
@pytest.mark.parametrize("n_outputs", [1, 8])
def test_presorted_grower_equals_reference(columns, min_leaf, max_depth, n_outputs):
    rng = np.random.default_rng([min_leaf, n_outputs, len(columns)])
    X = _columns(columns, rng, 60, 7)
    Y = rng.normal(size=(60, n_outputs))
    model = tree_fit(X, Y, max_depth=max_depth, min_samples_leaf=min_leaf)
    assert_same_tree(model, reference_tree_fit(X, Y, max_depth, min_leaf))


@pytest.mark.parametrize("columns", ["float", "pixels"])
def test_multi_pass_scan_equals_reference(columns):
    rng = np.random.default_rng(5)
    n, m = 50, 2
    d = 2 * tree_module._PASS_ELEMENTS // (n * m) + 3  # three passes at the root
    X = _columns(columns, rng, n, d)
    Y = rng.normal(size=(n, m))
    model = tree_fit(X, Y, max_depth=None, min_samples_leaf=3)
    assert tree_depth(model) > 1
    assert_same_tree(model, reference_tree_fit(X, Y, None, 3))


def test_small_passes_equal_reference(monkeypatch):
    # passes of a few columns each, down to one column per pass
    monkeypatch.setattr(tree_module, "_PASS_ELEMENTS", 64)
    rng = np.random.default_rng(6)
    X = _columns("pixels", rng, 40, 9)
    Y = rng.normal(size=(40, 2))
    for min_leaf in (1, 4):
        model = tree_fit(X, Y, max_depth=None, min_samples_leaf=min_leaf)
        assert_same_tree(model, reference_tree_fit(X, Y, None, min_leaf))


def _byte_block(kind):
    rng = np.random.default_rng(9)
    if kind == "pixels":
        return rng.integers(0, 256, size=(360, 2304)) / 255.0
    images = rng.integers(0, 256, size=(40, 18, 18), dtype=np.uint8)
    return lbp_circular(images, LbpConfig()).reshape(40, -1).astype(np.float64)


@pytest.mark.parametrize("kind, dtype", [("pixels", np.uint8), ("lbp codes", np.float64)],
                         ids=["pixels", "lbp codes"])
def test_byte_presort_equals_the_float_argsort(kind, dtype):
    # only scaled pixels sort as bytes; integer codes keep the float argsort
    X = _byte_block(kind)
    assert tree_module._as_bytes(X.T).dtype == dtype
    assert np.array_equal(tree_module._presort(X), np.argsort(X.T, axis=1, kind="stable"))


def test_a_value_one_ulp_off_a_pixel_level_takes_the_float_path():
    # as bytes, rows 0 and 1 would tie at level 7 and keep row order;
    # as floats, row 0 is the larger and sorts after row 1
    X = _byte_block("pixels")[:, :3].copy()
    X[0, 1], X[1, 1] = np.nextafter(7 / 255.0, 1.0), 7 / 255.0
    assert tree_module._as_bytes(X[:, 1:2].T).dtype == np.float64
    order = tree_module._presort(X)
    assert np.array_equal(order, np.argsort(X.T, axis=1, kind="stable"))
    assert list(order[1]).index(1) < list(order[1]).index(0)


def test_negative_zero_sorts_as_zero():
    X = np.array([[51 / 255.0], [-0.0], [0.0], [-0.0], [1 / 255.0]])
    assert tree_module._as_bytes(X.T).dtype == np.uint8
    assert tree_module._presort(X).tolist() == [[1, 2, 3, 4, 0]]


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_prefix_sums_are_cumsums_bit_for_bit(m):
    rng = np.random.default_rng(m)
    a = rng.normal(size=(3, 50, m)) * 10.0 ** rng.integers(-8, 9, size=(3, 50, m))
    assert np.array_equal(tree_module._prefix_sums(a.copy()), np.cumsum(a, axis=1))


def _full_scan_fit(monkeypatch, X, Y, **kwargs):
    """tree_fit with a screen that keeps every column: the exact scan runs
    over all of them at every node, as it would with no screen in front."""
    scan = tree_module._sse_scan

    def every_column(X, Y, order, cols, lo, hi):
        assert np.array_equal(cols, np.arange(X.shape[1]))
        return scan(X, Y, order, cols, lo, hi)

    with monkeypatch.context() as patch:
        patch.setattr(tree_module, "_screen",
                      lambda X, Y, order, *args: (np.arange(len(order)), order))
        patch.setattr(tree_module, "_sse_scan", every_column)
        return tree_fit(X, Y, **kwargs)


def _keypoint_targets(rng, X, m, jitter=0.5):
    """Keypoint-like targets: m coordinates near fixed spots that move
    together, one common shift driven by the pixels of columns 0-3, a
    weaker second one by column 4, and a little independent jitter."""
    shift = 6.0 * (X[:, 0] - X[:, 1]) + 3.0 * X[:, 2] * X[:, 3]
    tilt = 2.0 * X[:, 4]
    spots = rng.uniform(20.0, 76.0, size=m)
    Y = spots + np.outer(shift, rng.normal(size=m)) + np.outer(tilt, rng.normal(size=m))
    return Y + jitter * rng.normal(size=Y.shape)


def _scanned_columns(monkeypatch):
    """A list that records how many columns each call of the exact scan
    gets: at each screened node, the probes, then the kept columns."""
    scanned = []
    scan = tree_module._sse_scan

    def spy(X, Y, order, cols, lo, hi):
        scanned.append(len(cols))
        return scan(X, Y, order, cols, lo, hi)

    monkeypatch.setattr(tree_module, "_sse_scan", spy)
    return scanned


def _kept_columns(monkeypatch):
    """A list that records, for each node the screen sees, how many of its
    columns it keeps and how many it had."""
    kept = []
    screen = tree_module._screen

    def spy(X, Y, order, *args):
        cols, lists = screen(X, Y, order, *args)
        kept.append((len(cols), len(order)))
        return cols, lists

    monkeypatch.setattr(tree_module, "_screen", spy)
    return kept


def test_a_kaggle_size_fit_presorts_as_bytes_and_screens_like_the_full_scan(monkeypatch):
    # the pixels presort as bytes in the float argsort's order, and the exact scan over
    # the columns the screen keeps grows the node arrays of the scan over every column
    X, Y = kaggle_size_block()
    assert tree_module._as_bytes(X.T).dtype == np.uint8
    assert np.array_equal(tree_module._presort(X), np.argsort(X.T, axis=1, kind="stable"))
    assert_same_tree(tree_fit(X, Y), flatten_tree(_full_scan_fit(monkeypatch, X, Y)))


@pytest.mark.parametrize("columns", ["duplicated", "pixels"])
@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("n_outputs", [1, 8, 22])
@pytest.mark.parametrize("min_leaf", [1, 3])
def test_certified_scan_equals_the_full_scan(monkeypatch, columns, offset, n_outputs, min_leaf):
    rng = np.random.default_rng([n_outputs, min_leaf, len(columns)])
    X = _columns("pixels", rng, 60, 7)
    if columns == "duplicated":
        X = X[:, [0, 1, 0, 2, 1, 3, 3, 2]]
    Y = rng.normal(size=(60, n_outputs)) + offset  # an offset widens the margin
    model = tree_fit(X, Y, max_depth=None, min_samples_leaf=min_leaf)
    full = _full_scan_fit(monkeypatch, X, Y, max_depth=None, min_samples_leaf=min_leaf)
    assert_same_tree(model, flatten_tree(full))
    assert_same_tree(model, reference_tree_fit(X, Y, None, min_leaf))


@pytest.mark.parametrize("targets", ["keypoints", "rank-one", "offset"])
@pytest.mark.parametrize("n_outputs", [1, 2, 8, 22])
@pytest.mark.parametrize("min_leaf", [1, 4])
def test_screened_scan_equals_the_full_scan(monkeypatch, targets, n_outputs, min_leaf):
    rng = np.random.default_rng([n_outputs, min_leaf, len(targets)])
    X = _columns("pixels", rng, 150, 40)
    Y = _keypoint_targets(rng, X, n_outputs, jitter=0.0 if targets == "rank-one" else 0.5)
    if targets == "rank-one":  # one shift, no jitter: every eigenvalue past the first is 0
        Y = Y[:, :1] + np.outer(Y[:, 0] - Y[0, 0], np.arange(n_outputs))
    if targets == "offset":  # the rounding terms grow with the targets' size
        Y += 1e6
    kept = _kept_columns(monkeypatch)
    model = tree_fit(X, Y, max_depth=None, min_samples_leaf=min_leaf)
    pruned = sum(k < d for k, d in kept)
    if targets != "offset":  # every m prunes, the full-width stage too
        assert pruned >= 5
    full = _full_scan_fit(monkeypatch, X, Y, max_depth=None, min_samples_leaf=min_leaf)
    assert_same_tree(model, flatten_tree(full))
    assert_same_tree(model, reference_tree_fit(X, Y, None, min_leaf))


def test_certified_scan_equals_the_full_scan_on_fuzzed_ties(monkeypatch):
    # the full-width stage alone, from one probe: no tail term, the
    # loosest lower bound
    monkeypatch.setattr(tree_module, "_SCREEN_WIDTHS", ())
    monkeypatch.setattr(tree_module, "_SCREEN_PROBES", 1)
    kept = _kept_columns(monkeypatch)
    _fuzzed_ties_equal_the_full_scan(monkeypatch)
    assert sum(k < d for k, d in kept) >= 50


def test_screened_scan_equals_the_full_scan_on_fuzzed_ties(monkeypatch):
    kept = _kept_columns(monkeypatch)
    _fuzzed_ties_equal_the_full_scan(monkeypatch)
    assert sum(k < d for k, d in kept) >= 50


def _fuzzed_ties_equal_the_full_scan(monkeypatch):
    # few levels, repeated columns and integer targets: many exact ties;
    # half the targets move together, as keypoints do
    rng = np.random.default_rng(8)
    for trial in range(60):
        n, d, m = (int(v) for v in rng.integers([4, 1, 1], [40, 10, 10]))
        X = rng.integers(0, rng.integers(2, 5), size=(n, d)) / 4
        X = X[:, rng.integers(0, d, size=d + 2)]
        Y = rng.integers(-2, 3, size=(n, m)) * 1.0
        if trial % 2:
            Y = Y[:, :1] * rng.integers(-3, 4, size=m) + rng.integers(0, 2, size=(n, m))
        Y *= 10.0 ** rng.integers(-3, 7)
        min_leaf = int(rng.integers(1, 4))
        model = tree_fit(X, Y, max_depth=None, min_samples_leaf=min_leaf)
        full = _full_scan_fit(monkeypatch, X, Y, max_depth=None, min_samples_leaf=min_leaf)
        assert_same_tree(model, flatten_tree(full))
        assert_same_tree(model, reference_tree_fit(X, Y, None, min_leaf))


def _exact_split_gain(X, Y, feature, threshold):
    """The gain ``n |D|^2 / (n_L n_R)`` of one split in exact rationals."""
    n, m = Y.shape
    rows = [[Fraction(v) for v in row] for row in Y.tolist()]
    total = [sum(row[k] for row in rows) for k in range(m)]
    left = [row for row, go in zip(rows, X[:, feature] <= threshold) if go]
    n_left = len(left)
    d2 = sum((sum(row[k] for row in left) - Fraction(n_left, n) * total[k]) ** 2
             for k in range(m))
    return d2 * n / (n_left * (n - n_left))


def _exact_best_gains(X, Y, min_leaf):
    """Each column's largest gain ``n |D|^2 / (n_L n_R)`` over its
    candidates in exact rationals, D the left child's sum of the targets
    minus their mean (None: no candidate)."""
    n, m = Y.shape
    rows = [[Fraction(v) for v in row] for row in Y.tolist()]
    total = [sum(row[k] for row in rows) for k in range(m)]
    best = []
    for j in range(X.shape[1]):
        ids = np.argsort(X[:, j], kind="stable")
        left, top = [Fraction(0)] * m, None
        for p in range(n - 1):
            left = [a + b for a, b in zip(left, rows[ids[p]])]
            n_left = p + 1
            if min(n_left, n - n_left) < min_leaf or X[ids[p], j] == X[ids[p + 1], j]:
                continue
            d2 = sum((a - Fraction(n_left, n) * t) ** 2 for a, t in zip(left, total))
            gain = d2 * n / (n_left * (n - n_left))
            top = gain if top is None or gain > top else top
        best.append(top)
    return best


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_a_screened_out_column_gains_less_than_the_best_exactly(monkeypatch, offset):
    # twin columns split the rows into the same groups, in another order
    # within ties, so their gains are equal exactly and differ when rounded;
    # m from 1 covers the width-capped and the full-width stages
    rng = np.random.default_rng([int(offset), 11])
    scanned = []
    scan = tree_module._sse_scan

    def spy(*args):
        scanned.append(scan(*args))
        return scanned[-1]

    monkeypatch.setattr(tree_module, "_sse_scan", spy)
    dropped = 0
    for trial in range(12):
        n, m, min_leaf = int(rng.integers(16, 50)), int(rng.integers(1, 12)), int(rng.integers(1, 4))
        base = rng.integers(0, 5, size=(n, 5)) / 4
        X = np.hstack([base, base + rng.random((n, 5)) / 8, rng.random((n, 3))])
        Y = _keypoint_targets(rng, base, m, jitter=0.1) * 10.0 ** rng.integers(-2, 3) + offset
        order = tree_module._presort(X)
        node = np.take(Y, order[0], axis=0)
        scanned.clear()
        kept, _ = tree_module._screen(X, Y, order, min_leaf - 1, n - min_leaf, node)
        # the screen's first exact scan is its probes'; the lower bound comes from its best
        lower = tree_module._node_sse(node) - scanned[0][0] - tree_module._margin(node)
        _, feature, threshold = scan(X, Y, order, np.arange(X.shape[1]), min_leaf - 1, n - min_leaf)
        assert lower < _exact_split_gain(X, Y, feature, threshold), trial
        best = _exact_best_gains(X, Y, min_leaf)
        top = max(g for g in best if g is not None)
        for j in sorted(set(range(X.shape[1])) - set(kept.tolist())):
            assert best[j] is None or best[j] < top, (trial, j)
            dropped += 1
    assert dropped > (0 if offset == 1e6 else 20)


def _pixel_root(targets):
    rng = np.random.default_rng(7)
    X = rng.integers(0, 256, size=(360, 2304)) / 255.0
    if targets == "noise":
        return X, rng.normal(size=(360, 8))
    return X, _keypoint_targets(rng, X, 8)


def test_noise_pixel_root_scans_few_columns(monkeypatch):
    # no few directions hold the scatter of noise: the full-width stage prunes
    X, Y = _pixel_root("noise")
    scanned = _scanned_columns(monkeypatch)
    model = tree_fit(X, Y, max_depth=1)
    assert scanned == [tree_module._SCREEN_PROBES, 3]
    assert tree_depth(model) == 1


def test_keypoint_pixel_root_scans_few_columns(monkeypatch):
    X, Y = _pixel_root("keypoints")
    scanned = _scanned_columns(monkeypatch)
    model = tree_fit(X, Y, max_depth=1)
    assert tree_depth(model) == 1
    assert sum(scanned) <= 0.1 * X.shape[1]
    monkeypatch.undo()
    full = _full_scan_fit(monkeypatch, X, Y, max_depth=1)
    assert_same_tree(model, flatten_tree(full))


def _chain(depth):
    """A hand-built tree whose right spine is depth inner nodes long.

    Inner node i has id 2i, threshold i and value i; its left leaf (value
    -1) comes next and its right child after that. The last leaf has id
    2 * depth and value depth.
    """
    k = 2 * depth + 1
    inner = np.arange(0, k - 1, 2)
    feature = np.full(k, -1)
    feature[inner] = 0
    threshold = np.zeros(k)
    threshold[inner] = np.arange(depth)
    left = np.full(k, -1)
    left[inner] = inner + 1
    right = np.full(k, -1)
    right[inner] = inner + 2
    value = np.full((k, 1), -1.0)
    value[inner, 0] = np.arange(depth)
    value[-1, 0] = depth
    n_samples = np.ones(k, dtype=np.int64)
    n_samples[inner] = depth - np.arange(depth) + 1
    return TreeModel(feature, threshold, left, right, value, n_samples,
                     n_features=1, max_depth=None, min_samples_leaf=1)


def test_deep_chain_round_trips():
    model = _chain(3000)
    assert tree_depth(model) == 3000
    arrays = flatten_tree(model)
    assert len(arrays["feature"]) == 6001
    # preorder: each inner node's left leaf comes next, its right child after that
    inner = np.flatnonzero(arrays["feature"] >= 0)
    assert np.array_equal(arrays["left"][inner], inner + 1)
    assert np.array_equal(arrays["right"][inner], inner + 2)
    back = rebuilt(arrays)
    assert tree_depth(back) == 3000
    again = flatten_tree(back)
    for key in arrays:
        assert np.array_equal(arrays[key], again[key])
    Q = np.array([[2999.5], [0.0], [1500.0]])
    assert np.array_equal(tree_predict(back, Q)[:, 0], [3000.0, -1.0, -1.0])


def test_model_rejects_children_before_their_parent():
    arrays = {name: arr.copy() for name, arr in flatten_tree(_chain(2)).items()}
    arrays["left"][2] = 0  # a cycle back to the root
    with pytest.raises(ValueError, match="not later nodes"):
        TreeModel(**arrays, n_features=1, max_depth=None, min_samples_leaf=1)


def _drop_last_threshold(arrays):
    arrays["threshold"] = arrays["threshold"][:-1]


def _flat_value(arrays):
    arrays["value"] = arrays["value"][:, 0]


def _wide_feature(arrays):
    arrays["feature"][2] = 1


def _negative_child(arrays):
    arrays["right"][0] = -1


@pytest.mark.parametrize("tamper,fragment", [
    (_drop_last_threshold, "unequal lengths"),
    (_flat_value, "2-d"),
    (_wide_feature, "tree node 2 splits on feature 1, outside [0, 1)"),
    (_negative_child, "tree node 0 has children 1 and -1"),
])
def test_model_rejects_malformed_arrays(tamper, fragment):
    arrays = {name: arr.copy() for name, arr in flatten_tree(_chain(2)).items()}
    tamper(arrays)
    with pytest.raises(ValueError) as exc:
        TreeModel(**arrays, n_features=1, max_depth=None, min_samples_leaf=1)
    assert fragment in str(exc.value)


def test_fit_deeper_than_the_recursion_limit():
    # x = 0..n-1 with y = 2^x: the best split peels off the largest row
    # each time, so the tree is a chain n - 1 deep
    n = 400
    X = np.arange(float(n))[:, None]
    Y = 2.0 ** np.arange(n) / 2.0 ** n
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        model = tree_fit(X, Y, max_depth=None)
        depth = tree_depth(model)
        arrays = flatten_tree(model)
        back = rebuilt(arrays)
    finally:
        sys.setrecursionlimit(limit)
    assert depth > 200
    assert np.array_equal(tree_predict(back, X), tree_predict(model, X))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["X", "Y"])
def test_non_finite_input_is_rejected(bad, where):
    X = np.arange(12.0).reshape(6, 2)
    Y = np.arange(6.0)
    (X if where == "X" else Y)[3] = bad
    with pytest.raises(ValueError, match="finite"):
        tree_fit(X, Y)



def _target_limit(n, m):
    return np.sqrt(np.finfo(np.float64).max / m) / (4 * n)


@pytest.mark.parametrize("huge", [1e155, 1e300])
def test_targets_whose_split_sums_overflow_are_rejected(huge):
    X = np.arange(8.0)[:, None]
    Y = np.zeros((8, 2))
    Y[0, 0] = huge
    with pytest.raises(ValueError, match="tree targets must be at most"):
        tree_fit(X, Y, max_depth=None)
    Y[0, 0] = np.nextafter(_target_limit(8, 2), np.inf)
    with pytest.raises(ValueError, match="tree targets must be at most"):
        tree_fit(X, Y, max_depth=None)


def test_targets_at_the_bound_fit_without_overflow():
    # one row at -limit and the rest at +limit: the right-hand sums of the
    # first candidate are (n - 1) * limit, the largest the bound allows.
    # A RuntimeWarning from the scan fails this test (pytest settings).
    n, m = 8, 2
    X = np.arange(float(n))[:, None]
    Y = np.full((n, m), _target_limit(n, m))
    Y[0] = -Y[0]
    model = tree_fit(X, Y, max_depth=None)
    assert model.feature[0] == 0 and model.threshold[0] == 0.5
    assert np.allclose(tree_predict(model, X), Y, rtol=1e-15, atol=0.0)


def test_screened_targets_at_the_bound_fit_without_overflow(monkeypatch):
    # enough rows and outputs for the screen; its scatter, projections and
    # bounds must stay finite too
    n, m = 32, 8
    rng = np.random.default_rng(12)
    X = rng.random((n, 3))
    Y = np.where(rng.random((n, m)) < 0.5, -1.0, 1.0) * _target_limit(n, m)
    kept = _kept_columns(monkeypatch)
    model = tree_fit(X, Y, max_depth=2)
    assert kept and tree_depth(model) == 2
    assert_same_tree(model, flatten_tree(_full_scan_fit(monkeypatch, X, Y, max_depth=2)))


def test_fit_memory_is_bounded_by_twice_the_input():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 256, size=(360, 2304)) / 255.0
    Y = rng.normal(size=(360, 8))
    tracemalloc.start()
    try:
        tree_fit(X, Y, max_depth=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * X.nbytes
