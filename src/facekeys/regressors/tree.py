"""CART-style regression tree for vector targets.

Splits greedily minimize the summed per-output squared error of the two
children. Candidate thresholds are midpoints between consecutive distinct
sorted values; ties between equally good splits go to the lowest feature
index, then the lowest threshold. Leaves predict their mean target.

A fitted tree is a set of node arrays in preorder (a node, then its left
subtree, then its right subtree), the same arrays its model file holds:
``feature`` (-1 at a leaf), ``threshold``, the ``left`` and ``right``
child ids (-1 at a leaf), ``value`` (each node's mean target) and
``n_samples``. Parents come before their children, so one forward pass
over the arrays visits every node after its parent.

The grower sorts every column once at the root (stable, int32 row ids)
and hands each child its share of every sorted list, kept in order by a
boolean mask (the presorted attribute lists of CART and SLIQ), so no node
sorts again. A node then finds its split in a screen and an exact scan,
each over its columns in passes of about _PASS_ELEMENTS gathered values:

1. The screen bounds each column's best gain from the node's targets
   projected on their top r principal directions, at the widths
   ``sorted({min(r, m) for r in _SCREEN_WIDTHS} | {m})`` in turn, and
   drops the columns whose bound is below a lower bound on the winner's
   gain, which the exact scan of the _SCREEN_PROBES columns of largest
   first bound gives. It gathers r values per row instead of m, and no
   X: the bound is a max over every position, candidate or not. The
   full-width stage r = m has no tail term, so it drops columns even
   where no few directions hold the targets' scatter.
2. The exact scan runs on the columns the screen keeps. Each candidate's
   children error comes from prefix sums of y and of y * y, by the same
   float operations in the same order as a scan that argsorts each
   column at each node, and the first minimum in column-major order
   wins. So the tree is the one that scan grows over all columns, to the
   last bit.

Rounding. Let u = 2^-53 and gamma_j = j u / (1 - j u), linear._gamma, the
bound the linear family's skip test also rests on. For a node of n rows
and m outputs, let T_k = sum y, Q_k = sum y^2 and A_k = sum |y| over
its rows, and ``M = 64 gamma_(n+m) sum_k (Q_k + A_k^2)`` (``_margin``).
The standard bounds for floating-point sums (Higham, Accuracy and
Stability of Numerical Algorithms, 2002, ch. 3-4) say a sum of j terms in
any order is off by at most gamma_(j-1) times the sum of their
magnitudes, and a product of j factors (1 + delta), |delta| <= u, is
1 + theta with |theta| <= gamma_j. So the computed prefix sums of y, and
their rests to T_k, are off by at most gamma_n A_k, and those of y * y by
gamma_n Q_k, their differences by 3 gamma_n Q_k. They give:

- the exact scan's computed children error is off by at most
  10 gamma_(n+m) sum_k (Q_k + A_k^2);
- the computed node error (``_node_sse``: Q_k - T_k^2 / n per output,
  floored at 0, summed) is off by little more than
  3 gamma_(n+m) sum_k (Q_k + A_k^2): Q_k by gamma_n Q_k, T_k^2 / n by
  3 gamma_n A_k^2, their difference by u (Q_k + A_k^2) more, the floor
  only moves it toward the exact value, which is nonnegative, and the
  sum of m such terms by gamma_(m-1) of their magnitudes.

They are below M / 4 and M / 16, with room for the rounding of M.

Why the screen keeps the winner's column. Take a node of n rows y_i with
exact mean ybar, and a split with n_L rows on the left, h = 1/n_L + 1/n_R
and ``D = sum_left (y_i - ybar)``. Its exact gain over not splitting, the
node's exact error less the children's, is ``Delta = h |D|^2``. The
scatter of the y_i - ybar is the children's own scatter plus b b^T,
b = sqrt(h) D, so ``b b^T <= S_mu``, the scatter sum e_i e_i^T of
e_i = y_i - mu about the computed mean mu (<= orders symmetric matrices;
moving the center from ybar to mu adds n (ybar - mu)(ybar - mu)^T). All
norms below are 2-norms.

- The bound. ``_principal`` takes the eigenvalues w_1 >= ... >= w_m and
  eigenvectors V that eigh gives for the computed scatter S_c of the
  c_i = fl(e_i); W holds the first r columns of V. Let
  ``eps >= |V^T V - I|`` and ``phi >= |V^T S_mu V - diag(w)|``. With
  z = V^T b, ``z z^T <= V^T S_mu V <= diag(w) + phi I``, so the last
  m - r entries of z hold at most w_(r+1) + phi, and
  ``|z|^2 >= (1 - eps) |b|^2``. So
  ``Delta <= (h |W^T D|^2 + w_(r+1) + phi) / (1 - eps)``, and at r = m,
  where z has no last entries, ``Delta <= h |W^T D|^2 / (1 - eps)``.
- eps and phi. The computed V^T V is off by at most gamma_m |V|^T |V|
  entrywise, of Frobenius norm at most gamma_m trace(V^T V) <=
  m gamma_m (1 + eps), so ``eps = 2 m (max|fl(V^T V) - I| + gamma_m)``
  bounds |V^T V - I|, the 2 covering the rest (m times the largest entry
  of an m x m matrix bounds its Frobenius norm, and squares nothing that
  could overflow).
  ``V^T S_mu V - diag(w)`` is ``V^T (S_mu - S_c) V + V^T R + (V^T V - I)
  diag(w)``, R = S_c V - V diag(w) the eigen residual. The rounding of
  the c_i and of C^T C puts S_mu - S_c within gamma_(n+2) |C|^T |C|
  entrywise, of norm at most about gamma_(n+2) q, q the trace of S_c; the
  computed R is within gamma_(m+2) sqrt(m (1 + eps)) (q + max|w|) of R;
  and |V| <= sqrt(1 + eps). So ``phi = 2 (gamma_(n+2) q + m max|fl(R)| +
  2 m gamma_(m+2) (q + max|w|) + eps max|w|)`` bounds the difference, the
  2 covering 1 + eps <= 3/2 and the rounding of phi itself. The screen
  is skipped when eps > 1/2.
- The projected term. With z_i = W^T e_i, ``W^T D = P - (n_L / n) T``
  exactly, P the sum of the z_i over the left rows and T over all rows.
  ``_projected`` computes the prefix sums P^ of the rows fl(c_i W) along
  each column's order, and T^, the last. Each computed row is within
  gamma_(m+1) |W|^T |e_i| of z_i, and a prefix sum of n of them within
  gamma_n of their magnitudes more, so P^ and T^ are within
  gamma_(n+m+1) |W|^T a of P and T, a = sum_i |e_i|, a vector of norm at
  most sqrt(r (1 + eps)) |a|. With h <= 2, sqrt(h) |W^T D| is at most
  ``sqrt(t) + 1.5 (|T^| + sqrt(r) rho)``, where t is the computed
  h |P^|^2 (off by a relative gamma_(r+4)) and
  ``rho = 8 gamma_(n+m+3) |a|_1`` (``rounding``; |a|_1 >= |a|). A
  column's bound takes the largest t over the positions lo <= p < hi:
  ``((sqrt(t) + 1.5 (|T^| + sqrt(r) rho))^2 + tail) / (1 - eps)``, tail
  ``max(w_(r+1), 0) + phi`` below r = m and 0 at it, times 1 + 1e-12 for
  the rounding of t and of this formula, a dozen operations on
  nonnegative floats.
- The lower bound. Let s be the smallest computed children error over
  the probe columns' candidates, e the computed node error and E the
  exact one, and c the full scan's first minimum. The full scan computes
  the same value for each probe candidate, so sse(c) <= s; its exact
  error is at most sse(c) + M/4; and E >= e - M/16. So
  ``Delta(c) >= e - s - 5M/16``, while the computed ``e - s - M`` is at
  most ``e - s - M/2`` (its two roundings are far below M/2). Every
  column whose bound is below it therefore gains less than c, and c's
  column is kept. The exact scan computes each column's values without
  regard to the columns beside it, so c is the first minimum over the
  kept columns too.

At the 360-row root of a study-raw fit (corpus seeds 1-3) the screen
keeps 1 to 3 of 2304 columns after its 8 probes, and over the 93 nodes of
three depth-5 fits it keeps 2% of the columns, most of them at nodes of
under 16 rows. The worst case is a node where many columns tie, such as
duplicated columns or nodes of a few rows, where hundreds of columns
split the rows the same way: all of them are kept, and the node costs
the screen on top of the full exact scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._inputs import check_count, check_fit_inputs, check_rows
from .linear import _gamma

#: Target values (columns x node rows x outputs) gathered per pass of the
#: exact scan, and values per pass of the presort, the screen and the
#: children's lists; smaller passes cost more calls. On a shared 2-vCPU
#: host, a depth-5 fit of a study-raw input (360 rows, 2304 pixel columns,
#: 8 outputs, corpus seed 1) took a median of 0.195, 0.183, 0.190, 0.198
#: and 0.205 s (nine interleaved runs) at 2^14, 2^15, 2^16, 2^17 and 2^18
#: values a pass, all within each other's quartiles up to 2^17. Its
#: tracemalloc peak grew from 6.8 MB at 2^14 to 7.2 MB at 2^16 and 9.7 MB
#: at 2^18, against a 6.6 MB X.
_PASS_ELEMENTS = 1 << 16

#: Widths r of the principal projections that screen a node's columns
#: before the exact scan, each applied to the columns the one before kept;
#: each is capped at m outputs, and the full width m comes last. On a
#: shared 2-vCPU host, three depth-5 study-raw fits (360 rows, 2304
#: columns, 8 outputs, corpus seeds 1-3) took a median of 0.88 s in all
#: with the full width alone, 0.66 s at (2,), 0.68 s at (4,) and 0.64 s
#: at (2, 4) and at (2, 4, 6) (seven interleaved runs). A width of 2 keeps
#: about a quarter of the columns for the price of two gathered values a
#: row.
_SCREEN_WIDTHS = (2, 4)

#: Columns, those of the largest first bounds, whose exact scan gives the
#: screen its lower bound on the winner's gain. The three fits took 0.64,
#: 0.63 and 0.66 s with 1, 8 and 32 probes.
_SCREEN_PROBES = 8

#: The node arrays in file order, and the dtype of each.
NODE_ARRAYS = {
    "feature": np.int64, "threshold": np.float64, "left": np.int64,
    "right": np.int64, "value": np.float64, "n_samples": np.int64,
}


@dataclass(eq=False)
class TreeModel:
    """A fitted tree: node arrays in preorder, node 0 the root.

    feature, threshold, left, right and n_samples are (k,); value is
    (k, m). A node with feature -1 is a leaf; an inner node sends a row to
    left when ``x[feature] <= threshold``. Building one raises ValueError
    when the arrays have unequal lengths, value is not 2-d, or an inner
    node splits on a feature outside [0, n_features) or has a child that
    does not come after it (which also rules out cycles).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    n_features: int
    max_depth: int | None
    min_samples_leaf: int

    def __post_init__(self):
        for name, dtype in NODE_ARRAYS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if self.value.ndim != 2 or len(self.value) == 0:
            raise ValueError(f"tree value must be 2-d with a row per node, "
                             f"got shape {self.value.shape}")
        k = len(self.value)
        if any(getattr(self, name).shape != (k,) for name in NODE_ARRAYS if name != "value"):
            shapes = ", ".join(f"{name} {getattr(self, name).shape}" for name in NODE_ARRAYS)
            raise ValueError(f"tree node arrays have unequal lengths: {shapes}")
        inner = np.flatnonzero(self.feature >= 0)
        wide = inner[self.feature[inner] >= self.n_features]
        if wide.size:
            i = int(wide[0])
            raise ValueError(f"tree node {i} splits on feature {self.feature[i]}, "
                             f"outside [0, {self.n_features})")
        left, right = self.left[inner], self.right[inner]
        bad = inner[~((inner < left) & (left < k) & (inner < right) & (right < k))]
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"tree node {i} has children {self.left[i]} and "
                             f"{self.right[i]}, not later nodes")


def _presort(X: np.ndarray) -> np.ndarray:
    """(d, n) int32: row j lists the row ids in stable order of column j."""
    n, d = X.shape
    order = np.empty((d, n), dtype=np.int32)
    step = max(1, _PASS_ELEMENTS // n)
    for start in range(0, d, step):
        order[start : start + step] = np.argsort(_as_bytes(X[:, start : start + step].T),
                                                 axis=1, kind="stable")
    return order


def _as_bytes(block: np.ndarray) -> np.ndarray:
    """block as uint8 k when each value is exactly k / 255 for an integer k
    in [0, 255] (scaled pixels); else block.

    k -> k / 255 is strictly increasing, so both give the same stable order,
    and numpy sorts uint8 by radix. -0.0 becomes 0, as it ties with 0.0.
    """
    if not (block.min() >= 0 and block.max() <= 1):  # NaN fails here too
        return block
    k = np.rint(block * 255.0)
    if not np.array_equal(k / 255.0, block):
        return block
    return k.astype(np.uint8)


def _passes(X, order, cols, lo, hi, m):
    """Scan passes over the columns cols (ascending) of a node with m
    outputs, whose rows order[i] lists in column cols[i]'s sorted order.

    Yields (columns, sorted row ids, sorted values, candidate mask) per
    pass. The mask is (columns, hi - lo): position lo <= p < hi is a
    candidate where the sorted value changes after it.
    """
    step = max(1, _PASS_ELEMENTS // (order.shape[1] * m))
    for start in range(0, len(cols), step):
        js = cols[start : start + step]
        ids = order[start : start + step]
        xs = X[ids, js[:, None]]
        yield js, ids, xs, xs[:, lo:hi] < xs[:, lo + 1 : hi + 1]


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """a (c, n, m) summed along axis 1 in place, by the float additions of
    np.cumsum. With m even, each pair of outputs is added as one complex
    number: the same additions in half the steps of numpy's serial loop."""
    pairs = a.view(np.complex128) if a.shape[2] % 2 == 0 else a
    np.cumsum(pairs, axis=1, out=pairs)
    return a


def _margin(Y: np.ndarray) -> float:
    """M for a node whose targets are Y (n, m): the exact scan's computed
    children error is within M/4 of the exact one, and the computed node
    error within M/16 (see the module docstring)."""
    n, m = Y.shape
    a = np.abs(Y).sum(axis=0)
    return 64 * _gamma(n + m) * float((Y * Y).sum() + (a * a).sum())


def _principal(C: np.ndarray):
    """(w, V, eps, phi) for centered targets C (n, m): the eigenvalues w
    of the scatter C^T C, descending, with their eigenvectors in the
    columns of V; eps bounds ||V^T V - I|| and phi the error of the
    computed eigenpairs as a split of the exact scatter (see the module
    docstring). None when eps > 1/2."""
    n, m = C.shape
    S = C.T @ C
    w, V = np.linalg.eigh(S)
    # m times the largest entry bounds an m x m Frobenius norm, and squares nothing
    eps = 2 * m * (float(np.abs(V.T @ V - np.eye(m)).max()) + _gamma(m))
    if not eps <= 0.5:
        return None
    top = float(np.abs(w).max())
    q = float(np.trace(S))
    residual = m * float(np.abs(S @ V - V * w).max())
    phi = 2 * (_gamma(n + 2) * q + residual + 2 * m * _gamma(m + 2) * (q + top)
               + eps * top)
    return w[::-1], V[:, ::-1], eps, phi


def _projected(Z, order, lo, hi, share):
    """Per column of the sorted lists order, the largest ``share |P|^2``
    over the positions lo <= p < hi, candidates or not, and |T|, where P
    is the prefix sum of the rows of Z (N, r) along the column's order at
    p and T the sum of all of them."""
    n, r = order.shape[1], Z.shape[1]
    reach, ends = np.empty(len(order)), np.empty(len(order))
    ones = np.ones(r)
    step = max(1, _PASS_ELEMENTS // (n * r))
    for start in range(0, len(order), step):
        cum = _prefix_sums(np.take(Z, order[start : start + step], axis=0))
        ll = np.square(cum[:, lo:hi]) @ ones
        ll *= share
        reach[start : start + step] = ll.max(axis=1)
        ends[start : start + step] = np.square(cum[:, -1]) @ ones
    return reach, np.sqrt(ends)


def _screen(X, Y, order, lo, hi, node):
    """(cols, lists): the columns, ascending, that may hold the exact
    scan's first minimum, and their sorted lists, for a node whose
    targets are node. Each column's gain is bounded on the node's top
    principal target directions, and a column whose bound is below a
    lower bound on the winner's gain is dropped (see the module
    docstring)."""
    n, m = node.shape
    cols, lists = np.arange(len(order)), order
    mean = node.mean(axis=0)
    C = node - mean
    found = _principal(C)
    if found is None:
        return cols, lists
    w, V, eps, phi = found
    Z = (Y - mean) @ V  # every row's centered targets in the principal directions
    n_left = np.arange(lo + 1.0, hi + 1.0)
    share = 1.0 / n_left + 1.0 / (n - n_left)
    rounding = 8 * _gamma(n + m + 3) * float(np.abs(C).sum())  # |a|_1 >= |a|_2
    lower = None
    for r in sorted({min(r, m) for r in _SCREEN_WIDTHS} | {m}):
        reach, ends = _projected(np.ascontiguousarray(Z[:, :r]), lists, lo, hi, share)
        far = np.sqrt(reach) + 1.5 * (ends + np.sqrt(r) * rounding)
        tail = max(float(w[r]), 0.0) + phi if r < m else 0.0
        bound = (far * far + tail) / (1 - eps) * (1 + 1e-12)
        if lower is None:
            probe = np.sort(np.argsort(bound)[-_SCREEN_PROBES:])
            best = _sse_scan(X, Y, order[probe], probe, lo, hi)
            if best is None:
                return cols, lists  # no probe candidate, no lower bound
            lower = _node_sse(node) - best[0] - _margin(node)
        keep = bound >= lower
        cols, lists = cols[keep], lists[keep]
    return cols, lists


def _sse_scan(X, Y, order, cols, lo, hi):
    """The exact scan of the columns cols, whose sorted rows are order:
    the best (children_sse, feature, threshold) over their candidates,
    the first minimum in column-major order, or None."""
    n, m = order.shape[1], Y.shape[1]
    best = None
    for js, ids, xs, candidate in _passes(X, order, cols, lo, hi, m):
        col, pos = np.nonzero(candidate)
        if not col.size:
            continue
        pos += lo
        ys = np.take(Y, ids, axis=0)
        # prefix sums along each column's order, one (m,) row per position
        cum2 = _prefix_sums(ys * ys).reshape(-1, m)
        cum1 = _prefix_sums(ys).reshape(-1, m)
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
            best = (float(sse[i]), int(js[c]), float(t))
    return best


def _best_split(X: np.ndarray, Y: np.ndarray, order: np.ndarray, min_leaf: int):
    """Best (children_sse, feature, threshold) of a node, or None.

    order[j] holds the node's rows in column j's sorted order. A boundary
    after sorted position p is a candidate where the value changes and
    both sides keep min_leaf rows. The first minimum in column-major order
    wins, which is the lowest feature, then the lowest threshold. The
    screen bounds the columns that minimum can be in, and the exact scan
    runs on those only.
    """
    d, n = order.shape
    if d == 0:
        return None  # no column, no split
    lo, hi = min_leaf - 1, n - min_leaf  # candidate positions lo <= p < hi
    cols, order = _screen(X, Y, order, lo, hi, np.take(Y, order[0], axis=0))
    return _sse_scan(X, Y, order, cols, lo, hi)


def _node_sse(Y: np.ndarray) -> float:
    tot1 = Y.sum(axis=0)
    tot2 = (Y * Y).sum(axis=0)
    return float(np.maximum(tot2 - tot1 * tot1 / Y.shape[0], 0.0).sum())


def _open_sse(Y: np.ndarray, depth: int, max_depth: int | None, min_leaf: int):
    """The squared error of the node whose targets are Y, or None when it
    may not split."""
    if max_depth is not None and depth >= max_depth:
        return None
    if Y.shape[0] < 2 * min_leaf or np.all(Y == Y[0]):
        return None
    return _node_sse(Y)


def _grow(X, Y, max_depth, min_leaf) -> dict[str, list]:
    """Grow depth first from an explicit stack; returns the node lists.

    A node takes its preorder id when it is popped, and the left child is
    pushed last, so it pops first. Only a node that may split carries its
    share of the sorted lists.
    """
    nodes = {name: [] for name in NODE_ARRAYS}
    sse = _open_sse(Y, 0, max_depth, min_leaf)
    goes_left = np.empty(X.shape[0], dtype=bool)  # indexed by row id
    # (rows, squared error or None, sorted lists, depth, parent's link list, parent id)
    stack = [(np.arange(X.shape[0]), sse, None if sse is None else _presort(X), 0, None, -1)]
    while stack:
        rows, sse, order, depth, links, parent = stack.pop()
        node = len(nodes["feature"])
        if links is not None:
            links[parent] = node
        for name, entry in zip(NODE_ARRAYS, (-1, 0.0, -1, -1, Y[rows].mean(axis=0), len(rows))):
            nodes[name].append(entry)
        if sse is None:
            continue
        found = _best_split(X, Y, order, min_leaf)
        if found is None or found[0] >= sse:
            continue  # no error reduction
        _, feature, threshold = found
        nodes["feature"][node], nodes["threshold"][node] = feature, threshold
        go = X[rows, feature] <= threshold
        goes_left[rows] = go
        left_sse = _open_sse(Y[rows[go]], depth + 1, max_depth, min_leaf)
        right_sse = _open_sse(Y[rows[~go]], depth + 1, max_depth, min_leaf)
        left_order, right_order = _split_lists(order, goes_left, int(go.sum()),
                                               left_sse is not None, right_sse is not None)
        # the right child is pushed first, so the left one grows first
        stack.append((rows[~go], right_sse, right_order, depth + 1, nodes["right"], node))
        stack.append((rows[go], left_sse, left_order, depth + 1, nodes["left"], node))
    return nodes


def _split_lists(order, goes_left, n_left, want_left, want_right):
    """The children's sorted lists (d, n_left) and (d, n - n_left), each
    None unless wanted: row j of a child's lists is row j of order with
    only the ids that go to that child, in order. goes_left is indexed by
    row id. Compressed in blocks of about _PASS_ELEMENTS ids, so no mask
    is d x n."""
    d, n = order.shape
    left = np.empty((d, n_left), dtype=order.dtype) if want_left else None
    right = np.empty((d, n - n_left), dtype=order.dtype) if want_right else None
    step = max(1, _PASS_ELEMENTS // n)
    for start in range(0, d, step):
        block = order[start : start + step].ravel()
        mask = goes_left[block]
        if want_left:
            np.compress(mask, block, out=left[start : start + step].reshape(-1))
        if want_right:
            np.compress(~mask, block, out=right[start : start + step].reshape(-1))
    return left, right


def tree_fit(X, Y, max_depth: int | None = 5, min_samples_leaf: int = 1) -> TreeModel:
    """Grow a regression tree and return its preorder node arrays.

    max_depth=None grows until leaves are pure or too small, which makes
    the tree reproduce its training targets exactly when feature rows are
    distinct. Columns are sorted once, at the root. Each node bounds every
    column's gain on the top principal directions of its targets, drops
    the columns whose bound is below a proven lower bound on the winner's
    gain, and runs the exact error scan on the rest; the module docstring
    proves that these hold the split a full exact scan picks, so the tree
    is that scan's to the last bit. Ties go to the lowest feature, then
    the lowest threshold. Where many columns tie (a node of a few rows,
    duplicated columns) all of them are scanned exactly, and the node
    costs about what a full scan plus the screen cost. Depth is bounded
    by memory, not by the recursion limit. An X with no columns fits one leaf, the mean target.
    NaN or inf in X or Y raises ValueError, and so does
    a target above sqrt(F / m) / (4 n) in magnitude, with F the largest
    float64, n rows and m outputs: under that bound no prefix sum,
    squared prefix sum, gain, margin, scatter or summed error reaches inf.
    So does a max_depth that is neither None nor an integer >= 0, or a
    min_samples_leaf not an integer >= 1 (a bool is neither).
    """
    X, Y = check_fit_inputs(X, Y)
    n, m = Y.shape
    limit = np.sqrt(np.finfo(np.float64).max / max(m, 1)) / (4 * n)
    if np.abs(Y).max(initial=0.0) > limit:
        raise ValueError(f"tree targets must be at most {limit:.3g} in magnitude "
                         f"for {n} rows and {m} outputs, got {np.abs(Y).max():.3g}")
    if max_depth is not None:
        check_count("max_depth", max_depth, 0)
    check_count("min_samples_leaf", min_samples_leaf, 1)
    return TreeModel(**_grow(X, Y, max_depth, min_samples_leaf), n_features=X.shape[1],
                     max_depth=max_depth, min_samples_leaf=min_samples_leaf)


def tree_predict(model: TreeModel, X) -> np.ndarray:
    """Route all rows down the tree together, one level per step, and
    emit the mean target of the leaf each one reaches."""
    X = check_rows(X, model.n_features)
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])  # the rows still at an inner node
    while rows.size:
        at = node[rows]
        inner = model.feature[at] >= 0
        rows, at = rows[inner], at[inner]
        go_left = X[rows, model.feature[at]] <= model.threshold[at]
        node[rows] = np.where(go_left, model.left[at], model.right[at])
    return model.value[node]


def tree_depth(model: TreeModel) -> int:
    """Longest root-to-leaf edge count, from one forward pass over the
    nodes (each parent comes before its children)."""
    left, right = model.left.tolist(), model.right.tolist()
    depth = [0] * len(left)
    for i in np.flatnonzero(model.feature >= 0).tolist():
        depth[left[i]] = depth[right[i]] = depth[i] + 1
    return max(depth)


def flatten_tree(model: TreeModel) -> dict[str, np.ndarray]:
    """The model's node arrays by name, in file order (not copies)."""
    return {name: getattr(model, name) for name in NODE_ARRAYS}
