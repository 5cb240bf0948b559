"""Finite semigroups presented by explicit Cayley tables.

Elements are the indices 0..n-1 and ``table[i][j]`` is the product i*j.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .errors import IndexOutOfRange, NonAssociative, NotCompatible

# Subsets of the carrier are encoded as bit masks elsewhere in the package,
# so the carrier must fit in one machine word.
MAX_ORDER = 64

# all_congruences checks partitions in batches of at most this many
# quadruple flags (n**4 per partition), a few MB of temporaries.
_BATCH_FLAGS = 1 << 18


class FiniteSemigroup:
    """A validated semigroup on {0, ..., n-1}.

    Construction rejects tables that are not associative. ``table`` is a
    read-only uint8 array. Instances are immutable afterwards and safe to
    share across threads.
    """

    __slots__ = ("table", "rows", "order", "commutative", "identity",
                 "_profiles", "_fingerprint", "_hash")

    def __init__(self, table):
        try:
            arr = np.array(table, dtype=np.int64)
        except OverflowError:
            raise IndexOutOfRange("a table entry does not fit in 64 bits, "
                                  "so it is outside the carrier")
        except (TypeError, ValueError):
            arr = None
        # np.array truncates floats and parses digit strings silently.
        if arr is None or np.asarray(table).dtype.kind not in "iu":
            raise IndexOutOfRange("table entries must be integers, in rows "
                                  "of equal length")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise IndexOutOfRange(
                f"expected a non-empty square table, got shape {arr.shape}")
        n = arr.shape[0]
        if n > MAX_ORDER:
            raise IndexOutOfRange(
                f"order {n} exceeds the supported maximum of {MAX_ORDER}")
        if arr.min() < 0 or arr.max() >= n:
            i, j = np.argwhere((arr < 0) | (arr >= n))[0]
            # Read the entry from the input: a uint64 entry >= 2**63 wraps
            # to a negative one in the int64 copy.
            entry = int(np.asarray(table)[i, j])
            raise IndexOutOfRange(
                f"entry {entry} at ({int(i)}, {int(j)}) is outside [0, {n})")
        # Entries are below MAX_ORDER, so the table is kept as an exact
        # uint8 copy. (i*j)*k == i*(j*k) for every triple, all at once.
        small = arr.astype(np.uint8)
        lhs = small[small, :]
        rhs = small[:, small]
        if not np.array_equal(lhs, rhs):
            i, j, k = np.argwhere(lhs != rhs)[0]
            raise NonAssociative(int(i), int(j), int(k))
        small.setflags(write=False)
        self.table = small
        self.rows = small.tolist()  # plain lists for fast scalar access
        self.order = n
        self.commutative = bool(np.array_equal(small, small.T))
        self.identity = self._find_identity()
        self._profiles = None
        self._fingerprint = None
        self._hash = hash((n, small.tobytes()))

    def _find_identity(self):
        want = np.arange(self.order)
        t = self.table
        found = np.flatnonzero((t == want).all(axis=1) &
                               (t.T == want).all(axis=1))
        return int(found[0]) if found.size else None

    def _check_element(self, a):
        if not 0 <= a < self.order:
            raise IndexOutOfRange(f"element {a} outside [0, {self.order})")

    def is_left_cancellative(self, a):
        """True iff x -> a*x is injective (row of a has no repeats)."""
        self._check_element(a)
        return len(set(self.rows[a])) == self.order

    def is_right_cancellative(self, a):
        """True iff x -> x*a is injective (column of a has no repeats)."""
        self._check_element(a)
        return len({row[a] for row in self.rows}) == self.order

    def is_cancellative(self, a):
        return self.is_left_cancellative(a) and self.is_right_cancellative(a)

    def cancellative_elements(self):
        return [a for a in range(self.order) if self.is_cancellative(a)]

    def is_cancellative_semigroup(self):
        return all(self.is_cancellative(a) for a in range(self.order))

    def idempotents(self):
        return [x for x in range(self.order) if self.rows[x][x] == x]

    def index_and_period(self, a):
        """(index, period) of the cyclic subsemigroup generated by a.

        index is the least m with a**m = a**(m + period); the subsemigroup
        {a, a**2, ...} has index + period - 1 elements.
        """
        self._check_element(a)
        seen = {}
        x = a
        step = 1
        while x not in seen:
            seen[x] = step
            x = self.rows[x][a]
            step += 1
        first = seen[x]
        return first, step - first

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteSemigroup)
                                 and self.order == other.order
                                 and np.array_equal(self.table, other.table))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteSemigroup(order={self.order})"


class Congruence:
    """A partition of the carrier compatible with the operation.

    labels[i] is the block of element i; labels are normalized so blocks
    are numbered by first appearance.
    """

    __slots__ = ("semigroup", "labels", "classes")

    def __init__(self, semigroup, labels):
        self.semigroup = semigroup
        self.labels = tuple(labels)
        blocks = {}
        for x, lab in enumerate(self.labels):
            blocks.setdefault(lab, []).append(x)
        self.classes = tuple(tuple(b) for b in blocks.values())

    def __eq__(self, other):
        return (isinstance(other, Congruence)
                and self.semigroup == other.semigroup
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.semigroup, self.labels))

    def __repr__(self):
        return f"Congruence(labels={list(self.labels)})"


def _normalize_labels(labels):
    seen = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return out


def congruence_from_partition(semigroup, labels):
    """Validate a partition as a congruence or raise NotCompatible.

    The check covers all quadruples (x1, y1, x2, y2) with x1 ~ y1 and
    x2 ~ y2 and requires x1*x2 ~ y1*y2, as one n**4 boolean array; the
    first failure in (x1, y1, x2, y2) order is reported.
    """
    n = semigroup.order
    if len(labels) != n:
        raise IndexOutOfRange(f"expected {n} labels, got {len(labels)}")
    lab = _normalize_labels(labels)
    bad = _incompatible(semigroup, np.array([lab]))[0]
    if bad.any():
        raise NotCompatible(*(int(v) for v in np.argwhere(bad)[0]))
    return Congruence(semigroup, lab)


def _incompatible(semigroup, labels):
    """bad[k, x1, y1, x2, y2] for each labelling labels[k]: x1 ~ y1 and
    x2 ~ y2 under it, but x1*x2 and y1*y2 fall in different blocks."""
    same = labels[:, :, None] == labels[:, None, :]
    product_label = labels[:, semigroup.table]
    return (same[:, :, :, None, None] & same[:, None, None, :, :]
            & (product_label[:, :, None, :, None]
               != product_label[:, None, :, None, :]))


def _label_vectors(n):
    # Restricted-growth strings: labels[0] = 0, labels[i] <= max so far + 1.
    labels = [0] * n

    def rec(i, used):
        if i == n:
            yield labels.copy()
            return
        for v in range(used + 1):
            labels[i] = v
            yield from rec(i + 1, max(used, v + 1))

    yield from rec(1, 1) if n > 1 else iter([[0]])


def all_congruences(semigroup):
    """Every congruence of the semigroup, by checking all set partitions,
    as many at once as keep the n**4 flags of each within _BATCH_FLAGS."""
    vectors = _label_vectors(semigroup.order)
    per_batch = max(1, _BATCH_FLAGS // semigroup.order ** 4)
    found = []
    while batch := list(islice(vectors, per_batch)):
        bad = _incompatible(semigroup, np.array(batch))
        compatible = ~bad.reshape(len(batch), -1).any(axis=1)
        found.extend(Congruence(semigroup, labels)
                     for labels, ok in zip(batch, compatible.tolist()) if ok)
    return found


def parse_table(text):
    """Parse the Cayley-table text format into a list of rows.

    Line one holds n; the next n lines hold n space-separated indices,
    row i listing the products i*j. '#' starts a comment.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty table text")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the order, got {lines[0]!r}")
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        row = [int(tok) for tok in line.split()]
        if len(row) != n:
            raise ValueError(f"expected {n} entries per row, got {len(row)}")
        rows.append(row)
    return rows


def read_table(path):
    with open(path, encoding="utf-8") as handle:
        return parse_table(handle.read())


def format_table(semigroup_or_rows):
    """Render a Cayley table in the text format accepted by parse_table."""
    rows = getattr(semigroup_or_rows, "rows", semigroup_or_rows)
    out = [str(len(rows))]
    out.extend(" ".join(str(v) for v in row) for row in rows)
    return "\n".join(out) + "\n"
