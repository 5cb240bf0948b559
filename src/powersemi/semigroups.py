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

# Batched table work keeps its temporaries near 8 * _BATCH_CELLS bytes
# however many tables a caller passes. The fingerprint kernel takes up to
# about 8 bytes per table cell, so it profiles _BATCH_CELLS cells at once
# (chunks eight times larger ran no faster and left the process's peak
# RSS about 5 MB higher); re-checking the associativity of an order-n
# table gathers n uint8 entries per side for each of its cells.
_BATCH_CELLS = 1 << 16


class FiniteSemigroup:
    """A validated semigroup on {0, ..., n-1}.

    Construction rejects tables that are not associative. ``table`` is a
    read-only uint8 array and ``rows`` the same table as plain lists,
    built on first use. Instances are immutable afterwards and safe to
    share across threads.
    """

    __slots__ = ("table", "order", "commutative", "identity", "_rows",
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
        raw = None if arr is None else np.asarray(table)
        if raw is None or raw.dtype.kind not in "iu":
            raise IndexOutOfRange("table entries must be integers, in rows "
                                  "of equal length")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise IndexOutOfRange(
                f"expected a non-empty square table, got shape {arr.shape}")
        if arr.shape[0] > MAX_ORDER:
            raise IndexOutOfRange(f"order {arr.shape[0]} exceeds the "
                                  f"supported maximum of {MAX_ORDER}")
        # The input itself, not its int64 copy, is validated: a uint64
        # entry >= 2**63 wraps to a negative one in the copy.
        tables, commutative, identities = _validate(raw[None])
        # A copy, not a view that would keep the stack of one alive: about
        # 150 bytes less per instance.
        table = tables[0].copy()
        table.setflags(write=False)
        self._install(table, commutative[0], identities[0])

    def _install(self, table, commutative, identity):
        self.table = table
        self.order = table.shape[0]
        self.commutative = commutative
        self.identity = identity
        self._rows = None
        self._profiles = None
        self._fingerprint = None
        self._hash = hash((self.order, table.tobytes()))

    @property
    def rows(self):
        """The table as plain lists, for fast scalar access."""
        if self._rows is None:
            self._rows = self.table.tolist()
        return self._rows

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
        rows = self.rows
        return [x for x in range(self.order) if rows[x][x] == x]

    def index_and_period(self, a):
        """(index, period) of the cyclic subsemigroup generated by a.

        index is the least m with a**m = a**(m + period); the subsemigroup
        {a, a**2, ...} has index + period - 1 elements.
        """
        self._check_element(a)
        rows = self.rows
        seen = {}
        x = a
        step = 1
        while x not in seen:
            seen[x] = step
            x = rows[x][a]
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


def _validate(stack):
    """Validate a (k, n, n) stack of integer tables, 1 <= n <= MAX_ORDER.

    Raises IndexOutOfRange for the first entry outside [0, n) and
    NonAssociative for the first triple (i, j, l), in row-major order,
    with (i*j)*l != i*(j*l), both in the first table that has one.
    Returns the tables as one read-only uint8 array, then each table's
    commutativity flag and identity element (None if it has none).
    """
    k, n, _ = stack.shape
    # Read as unsigned of the same width and byte order, a negative entry
    # is at least 2**(bits - 1), so one bound catches both ends.
    unsigned = stack.view(stack.dtype.str.replace("i", "u"))
    if stack.size and unsigned.max() >= n:
        t, i, j = np.argwhere(unsigned >= n)[0]
        raise IndexOutOfRange(f"entry {int(stack[t, i, j])} at "
                              f"({int(i)}, {int(j)}) is outside [0, {n})")
    # Entries are below MAX_ORDER, so the tables are kept as an exact
    # uint8 copy. Row t*n + x of the flattened tables is row x of table
    # t, and likewise for the columns, so one row gather per side gives
    # lhs[t, i, j, l] = (i*j)*l and rhs[t, j, l, i] = i*(j*l).
    tables = stack.astype(np.uint8)
    columns = np.ascontiguousarray(tables.transpose(0, 2, 1))
    products = np.arange(0, k * n, n, dtype=np.intp)[:, None, None] + tables
    lhs = np.take(tables.reshape(k * n, n), products, axis=0)
    rhs = np.take(columns.reshape(k * n, n), products,
                  axis=0).transpose(0, 3, 1, 2)
    if (lhs != rhs).any():
        _, i, j, l = np.argwhere(lhs != rhs)[0]
        raise NonAssociative(int(i), int(j), int(l))
    tables.setflags(write=False)
    commutative = (tables == columns).all(axis=(1, 2)).tolist()
    elements = np.arange(n, dtype=np.uint8)
    neutral = ((tables == elements) & (columns == elements)).all(axis=2)
    identities = [row.index(True) if True in row else None
                  for row in neutral.tolist()]
    return tables, commutative, identities


def semigroups_from_stack(stack):
    """One FiniteSemigroup per table of a (k, n, n) integer array.

    The tables are validated together, with the same checks and errors
    as FiniteSemigroup applies to one table; each instance's ``table``
    is a read-only view of one uint8 copy of the stack.
    """
    stack = np.asarray(stack)
    if stack.dtype.kind not in "iu" or stack.ndim != 3 or \
            stack.shape[1] != stack.shape[2] or \
            not 0 < stack.shape[1] <= MAX_ORDER:
        raise IndexOutOfRange(
            f"expected a stack of square integer tables of order 1 to "
            f"{MAX_ORDER}, got {stack.dtype} of shape {stack.shape}")
    semigroups = []
    for table, commutative, identity in zip(*_validate(stack)):
        semigroup = object.__new__(FiniteSemigroup)
        semigroup._install(table, commutative, identity)
        semigroups.append(semigroup)
    return semigroups


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
