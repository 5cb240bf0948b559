"""Finite semigroups presented by explicit Cayley tables.

Elements are the indices 0..n-1 and ``table[i][j]`` is the product i*j.
The per-element profiles, and the fingerprints made of them, are
computed here for one table or a batch; the scalar queries read them.
"""

from __future__ import annotations

import operator
import re
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .errors import (IndexOutOfRange, NonAssociative, NotCompatible,
                     OrderCapExceeded, PreconditionViolated)

# Subsets of the carrier are encoded as bit masks elsewhere in the package,
# so the carrier must fit in one machine word.
MAX_ORDER = 64

# all_congruences checks partitions in batches of at most this many
# quadruple flags (n**4 per partition), a few MB of temporaries. It checks
# all Bell(n) partitions, so it refuses carriers above CONGRUENCE_MAX.
_BATCH_FLAGS = 1 << 18
CONGRUENCE_MAX = 10

# Batched table work keeps its temporaries within about 13 * _BATCH_CELLS
# bytes however many tables a caller passes (tracemalloc peaks below).
# _profile_rows keeps n-bit sets in the narrowest word that holds them,
# in one buffer that each call reuses from stack to stack, so
# fingerprints, which profiles _BATCH_CELLS cells at a time and sorts the
# rows, peaks at 9.1 bytes per table cell on a stack of 68 order-31
# power tables (32-bit sets) and 12.7 on 16 order-63 ones (64-bit sets)
# (chunks eight times larger ran no faster and left the process's peak
# RSS about 5 MB higher).
# _proved_power_stacks stacks _BATCH_CELLS one-byte masks of its 2**n by
# 2**n products, so build_power_semigroups peaks at 4.3 bytes per product
# cell (n = 5) and 4.2 (n = 6), and power_fingerprints, which profiles
# the stack itself, at 9.2 (n = 5) and 12.8 (n = 6).
_BATCH_CELLS = 1 << 16


class FiniteSemigroup:
    """A validated semigroup on {0, ..., n-1}.

    Construction rejects tables that are not associative. ``table`` is a
    read-only uint8 array and ``rows`` the same table as plain lists,
    built on first use, as are the ``profiles``. A carrier of order at
    most POWER_CAP_MAX also caches, from the first setwise product over
    it on (a SubsetFamily, family_products or setwise_product), its
    padded power table: the read-only uint8 (2**n, 2**n) array of
    power._power_table, 1 KB at order 5, from which those products are
    read. Instances are immutable afterwards and safe to share across
    threads.
    """

    __slots__ = ("table", "order", "commutative", "identity", "_rows",
                 "_profiles", "_fingerprint", "_power_table", "_hash")

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
        self._power_table = None
        self._hash = hash((self.order, table.tobytes()))

    @property
    def rows(self):
        """The table as plain lists, for fast scalar access."""
        if self._rows is None:
            self._rows = self.table.tolist()
        return self._rows

    @property
    def profiles(self):
        """Per element a, cached: a*a == a, the index and period of a,
        the numbers of distinct a*x and of distinct x*a, and how many
        elements commute with a. _profile_rows computes them for a stack
        of tables, without this cache."""
        if self._profiles is None:
            rows = self.rows
            profiles = []
            for a, (row, col) in enumerate(zip(rows, zip(*rows))):
                # seen[x] = m for x = a**m, until the first repeated power.
                seen = {}
                x = a
                while x not in seen:
                    seen[x] = len(seen) + 1
                    x = rows[x][a]
                index = seen[x]
                profiles.append((row[a] == a, index, len(seen) + 1 - index,
                                 len(set(row)), len(set(col)),
                                 sum(map(operator.eq, row, col))))
            self._profiles = tuple(profiles)
        return self._profiles

    def _profile_of(self, a):
        # Range-checked: a bare profiles[-1] would answer for the last one.
        if not 0 <= a < self.order:
            raise IndexOutOfRange(f"element {a} outside [0, {self.order})")
        return self.profiles[a]

    def is_left_cancellative(self, a):
        """True iff x -> a*x is injective (row of a has no repeats)."""
        return self._profile_of(a)[3] == self.order

    def is_right_cancellative(self, a):
        """True iff x -> x*a is injective (column of a has no repeats)."""
        return self._profile_of(a)[4] == self.order

    def is_cancellative(self, a):
        return self.is_left_cancellative(a) and self.is_right_cancellative(a)

    def cancellative_elements(self):
        return [a for a in range(self.order) if self.is_cancellative(a)]

    def is_cancellative_semigroup(self):
        return all(self.is_cancellative(a) for a in range(self.order))

    def idempotents(self):
        return [x for x, profile in enumerate(self.profiles) if profile[0]]

    def index_and_period(self, a):
        """(index, period) of the cyclic subsemigroup generated by a.

        index is the least m with a**m = a**(m + period); the subsemigroup
        {a, a**2, ...} has index + period - 1 elements.
        """
        return self._profile_of(a)[1:3]

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
    Returns the tables as one uint8 array, then each table's
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
    commutative = (tables == columns).all(axis=(1, 2)).tolist()
    elements = np.arange(n, dtype=np.uint8)
    neutral = ((tables == elements) & (columns == elements)).all(axis=2)
    identities = [row.index(True) if True in row else None
                  for row in neutral.tolist()]
    return tables, commutative, identities


def _semigroups_from_stack(tables, commutative, identities):
    """One FiniteSemigroup per table of a uint8 stack, each a read-only
    view, with the flags given: from _validate or proved by construction."""
    tables.setflags(write=False)
    semigroups = []
    for table, flag, identity in zip(tables, commutative, identities):
        semigroup = object.__new__(FiniteSemigroup)
        semigroup._install(table, flag, identity)
        semigroups.append(semigroup)
    return semigroups


def _table_stacks(semigroups, per_stack):
    """Yield the positions of at most per_stack(n) semigroups of one order
    n in a list, and their tables as one element-major (n, k, n) stack,
    stack[a, t, x] = a*x in table t: the layout of every stack that the
    batched kernels build, prove and profile."""
    by_order = {}
    for position, semigroup in enumerate(semigroups):
        by_order.setdefault(semigroup.order, []).append(position)
    for n, positions in by_order.items():
        size = per_stack(n)
        for start in range(0, len(positions), size):
            chunk = positions[start:start + size]
            # Row a of the concatenation is row a of each table in turn.
            yield chunk, np.concatenate(
                [semigroups[p].table for p in chunk], axis=1).reshape(
                    n, len(chunk), n)


class IsoFingerprint(NamedTuple):
    """Cheap isomorphism invariants used to prune the search.

    profiles is the per-element profiles as six-byte rows, sorted and
    concatenated: entries are at most MAX_ORDER, so it is equal iff the
    sorted profile tuples are. It fixes the order, commutativity and
    idempotent count read from it; equal fingerprints are necessary
    (never sufficient) for isomorphism.
    """

    has_identity: bool
    profiles: bytes

    @property
    def order(self):
        return len(self.profiles) // 6

    @property
    def commutative(self):
        """True iff every element commutes with all n elements."""
        return all(count == self.order for count in self.profiles[5::6])

    @property
    def idempotent_count(self):
        return sum(self.profiles[::6])


def fingerprint(semigroup):
    """Isomorphism-invariant fingerprint, cached on the instance."""
    if semigroup._fingerprint is None:
        semigroup._fingerprint = IsoFingerprint(
            semigroup.identity is not None,
            bytes(chain.from_iterable(sorted(semigroup.profiles))))
    return semigroup._fingerprint


def fingerprints(semigroups):
    """The fingerprint of each semigroup, equal to what fingerprint gives;
    those not yet cached sort the six-byte rows of _profile_rows, on
    stacks of up to _BATCH_CELLS table cells."""
    semigroups = list(semigroups)
    pending = [s for s in semigroups if s._fingerprint is None]
    buffer = None
    for positions, tables in _table_stacks(
            pending, lambda n: max(1, _BATCH_CELLS // (n * n))):
        buffer = _word_buffer(buffer, tables)
        for p, profiles in zip(positions, _sorted_profiles(
                _profile_rows(tables, buffer))):
            semigroup = pending[p]
            semigroup._fingerprint = IsoFingerprint(
                semigroup.identity is not None, profiles)
    return [fingerprint(semigroup) for semigroup in semigroups]


def _cache_profiles(semigroups):
    """Cache on each semigroup of a list the profiles that its profiles
    property would compute, element types included, from the rows of
    _profile_rows on stacks of up to _BATCH_CELLS table cells."""
    buffer = None
    for positions, tables in _table_stacks(
            semigroups, lambda n: max(1, _BATCH_CELLS // (n * n))):
        buffer = _word_buffer(buffer, tables)
        for p, rows in zip(positions,
                           _profile_rows(tables, buffer)[:, :, :6].tolist()):
            semigroups[p]._profiles = tuple((row[0] == 1, *row[1:])
                                            for row in rows)


def _sorted_profiles(keys):
    """The profiles field of a fingerprint per table, from the (k, m, 8)
    sort keys of its elements as _profile_rows lays them out: each
    table's keys sorted in place, their six-byte rows as bytes. One
    tobytes call copies the stack's rows, sliced per table."""
    # As zero-padded big-endian keys the rows sort as six-byte strings.
    keys.view(">u8")[..., 0].sort(axis=1)
    k, m, _ = keys.shape
    data = keys[:, :, :6].tobytes()
    step = 6 * m
    return [data[start:start + step] for start in range(0, k * step, step)]


def describe_fingerprint_mismatch(fp_a, fp_b):
    """Human-readable reason two fingerprints differ, or None if equal."""
    if fp_a == fp_b:
        return None
    if fp_a.order != fp_b.order:
        return f"order {fp_a.order} != {fp_b.order}"
    if fp_a.commutative != fp_b.commutative:
        return "only one side is commutative"
    if fp_a.has_identity != fp_b.has_identity:
        return "only one side has an identity"
    if fp_a.idempotent_count != fp_b.idempotent_count:
        return (f"idempotent counts {fp_a.idempotent_count} != "
                f"{fp_b.idempotent_count}")
    return "per-element invariant multisets differ"


def _word(n):
    """The narrowest unsigned dtype that holds an n-bit set: uint8 up to
    8 elements, ..., uint64 up to MAX_ORDER."""
    return next(dtype for dtype in (np.uint8, np.uint16, np.uint32, np.uint64)
                if n <= np.iinfo(dtype).bits)


def _word_buffer(buffer, t):
    """buffer if it has a word at least as wide as _word(n) for every
    cell of the (n, k, n) stack t, to hold one n-bit set each; else a
    fresh buffer of exactly t.size words of _word(n). The callers of _profile_rows allocate it on
    their first stack and regrow it only when a later stack needs a
    larger shape or a wider word, so no buffer outlives a call."""
    word = _word(t.shape[0])
    if (buffer is None or buffer.size < t.size
            or buffer.itemsize < np.dtype(word).itemsize):
        buffer = np.empty(t.size, word)
    return buffer


def _profile_rows(t, buffer=None):
    """The profiles of every element of every table of an element-major
    (n, k, n) stack of uint8 tables, t[a, i, x] = a*x in table i, as (k,
    n, 8) uint8 sort keys: the six profile columns (idempotency as 0/1),
    then two zero bytes, so that a key read as a big-endian uint64 orders
    as its six profile bytes do. The n-bit sets are shifted into buffer,
    from _word_buffer, or into a fresh one.

    The powers a, a**2, ... of every element come one at a time, a**(m+1)
    = a * a**m, by one gather along the rows of the whole stack, and each
    element keeps the set of its powers so far as an n-bit word of
    _word(n). Once no element gains a power, every cyclic subsemigroup is
    complete: its size s = index + period - 1 is the set's popcount,
    a**(s+1) = a**index, and index is the least m with a**m = a**(s+1).
    The other columns reduce over the first axis of the stack itself and
    of its one transposed copy, columns[x, i, a] = a*x: the entries of
    each row and column as n-bit sets, whose popcounts count distinct
    entries, and t == columns, which marks the pairs that commute.
    """
    n, k, _ = t.shape
    word = _word(n)
    one = word(1)
    flat = t.reshape(-1)
    elements = np.arange(n, dtype=np.intp)
    row_starts = (np.arange(0, k * n, n, dtype=np.intp)[:, None]
                  + elements * (k * n))
    powers = np.empty((n + 1, k, n), dtype=np.uint8)
    current = powers[0] = elements
    seen = np.left_shift(one, powers[0], dtype=word)
    for m in range(1, n + 1):
        current = powers[m] = flat[row_starts + current]
        bits = np.left_shift(one, current, dtype=word)
        if (seen & bits).all():
            break
        seen |= bits
    keys = np.zeros((k, n, 8), dtype=np.uint8)
    idempotent, index, period, row_sizes, column_sizes, commuting = \
        keys.transpose(2, 0, 1)[:6]
    np.equal(powers[1], powers[0], out=idempotent)
    size = np.bitwise_count(seen)
    # powers[size] = a**(s+1), gathered from the flat powers.
    cycle_start = np.take(powers, size * np.intp(k * n)
                          + np.arange(k * n, dtype=np.intp).reshape(k, n))
    # With weights m, ..., 1 on a, ..., a**m, the heaviest power equal
    # to a**(s+1) is a**index, of weight m + 1 - index.
    weights = np.arange(m, 0, -1, dtype=np.uint8)[:, None, None]
    np.subtract(m + 1, np.maximum.reduce(
        (powers[:m] == cycle_start) * weights, axis=0), out=index)
    np.subtract(size + 1, index, out=period)
    columns = np.ascontiguousarray(t.transpose(2, 1, 0))
    sets = _word_buffer(buffer, t).view(word)[:t.size].reshape(t.shape)
    np.left_shift(one, columns, out=sets)
    np.bitwise_count(np.bitwise_or.reduce(sets, axis=0), out=row_sizes)
    np.left_shift(one, t, out=sets)
    np.bitwise_count(np.bitwise_or.reduce(sets, axis=0), out=column_sizes)
    commuting[...] = np.add.reduce((t == columns).view(np.uint8), axis=0,
                                   dtype=np.uint8)
    return keys


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

    yield from rec(1, 1)


def all_congruences(semigroup):
    """Every congruence of the semigroup, by checking all set partitions,
    as many at once as keep the n**4 flags of each within _BATCH_FLAGS."""
    if semigroup.order > CONGRUENCE_MAX:
        raise OrderCapExceeded(
            f"all_congruences checks every partition, so order "
            f"{semigroup.order} is above its cap {CONGRUENCE_MAX}")
    vectors = _label_vectors(semigroup.order)
    per_batch = max(1, _BATCH_FLAGS // semigroup.order ** 4)
    found = []
    while batch := list(islice(vectors, per_batch)):
        bad = _incompatible(semigroup, np.array(batch))
        compatible = ~bad.reshape(len(batch), -1).any(axis=1)
        found.extend(Congruence(semigroup, labels)
                     for labels, ok in zip(batch, compatible.tolist()) if ok)
    return found


def _integer(x):
    """x as an int if it is an integer but not a bool, else None, where
    int() would truncate floats and parse strings."""
    try:
        return None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        return None


def _check_at_least(low, **arguments):
    """PreconditionViolated unless every argument is an integer >= low."""
    for name, value in arguments.items():
        x = _integer(value)
        if x is None or x < low:
            raise PreconditionViolated(
                f"{name} must be an integer of at least {low}, got {value!r}")


# An integer token of table text or of a CLI option; int() also reads
# `1_0` and `٣`.
INTEGER_TOKEN = re.compile(r"[+-]?[0-9]+")


def integer_token(text):
    """The integer of a token that is INTEGER_TOKEN once stripped, else None."""
    token = text.strip()
    return int(token) if INTEGER_TOKEN.fullmatch(token) else None


def parse_table(text):
    """Parse the Cayley-table text format into a list of rows.

    Line one holds n; the next n lines hold n space-separated indices,
    row i listing the products i*j. '#' starts a comment. Every number
    is an INTEGER_TOKEN.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty table text")
    n = integer_token(lines[0])
    if n is None:
        raise ValueError(f"first line must be the order, got {lines[0]!r}")
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        row = [integer_token(tok) for tok in line.split()]
        if None in row:
            raise ValueError(f"table entries must be integers, got {line!r}")
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
