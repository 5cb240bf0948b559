"""Setwise products of non-empty subsets, and families of such subsets.

Subsets of a carrier {0, ..., n-1} are bit masks: bit i set means element
i belongs to the subset. The full power semigroup of S lists all non-zero
masks in ascending order, so element k corresponds to mask k + 1.

Products come from two kernels. `family_products` multiplies listed
masks into a uint64 matrix; `setwise_product` is it on one pair, and a
`SubsetFamily` keeps its members' product matrix. Over a carrier of
order at most POWER_CAP_MAX it gathers them from the carrier's padded
power table, which the second kernel builds on a stack of one and the
carrier caches; above it, up to order 64, it runs a bit-DP.
`_proved_power_stacks` multiplies all masks of a stack of carriers,
the empty one included, by subset doubling in uint8, one byte per
product, and proves each table by the setwise product's recurrence:
P(S) with the empty set adjoined as a zero. Its stacks are
table-innermost from the carrier tables to the proof, products[X, Y, t]
= X*Y in table t, as _table_stacks lays them out, so each doubling step
and each proof gather moves whole contiguous blocks.
`build_power_semigroups` transposes them once into the table-major
tables without the empty set; `power_fingerprints` profiles them as
they are, with no copy, and keeps only the fingerprints. Neither reads
nor fills the carriers' cached tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (AmbientMismatch, IndexOutOfRange, OrderCapExceeded,
                     PreconditionViolated, TheoremViolation)
from .semigroups import (MAX_ORDER, FiniteSemigroup,
                         IsoFingerprint, _integer, _profile_rows,
                         _semigroups_from_stack, _sorted_profiles,
                         _table_stacks, _word_buffer)

# Full materialization of the power semigroup is allowed for carriers up
# to this order: the power table of an order-n carrier is a FiniteSemigroup
# of 2**n - 1 elements, so 2**n - 1 <= MAX_ORDER (63 <= 64, 127 > 64).
POWER_CAP_MAX = MAX_ORDER.bit_length() - 1

# _proved_power_stacks multiplies carriers of order n, _POWER_CELLS //
# 4**n of them a stack (128 at order 5, 32 at order 6), into one-byte
# masks of their 2**n by 2**n products. Under tracemalloc
# build_power_semigroups peaks at 4.5 bytes per product cell (n = 5) and
# 3.1 (n = 6), and power_fingerprints, which profiles the stack itself,
# at 9.7 (n = 5) and 11.7 (n = 6). Twice the cells made power_fingerprints
# 4% faster at order 5 but the probe's peak RSS 1.8 MB higher; half made
# it 25% slower.
_POWER_CELLS = 1 << 17

# A SubsetFamily holds the matrix of its member products, 8 * k**2 bytes
# for k members: 32 MiB at this ceiling, which an order-11 full family
# reaches.
FAMILY_MAX = 2047


def _check_cap(n):
    if n > POWER_CAP_MAX:
        raise OrderCapExceeded(
            f"carrier order {n} exceeds the materialization cap {POWER_CAP_MAX}")


def _check_family_size(k):
    if k > FAMILY_MAX:
        raise OrderCapExceeded(
            f"a family of {k} members exceeds the ceiling {FAMILY_MAX}")


def _nonnegative_mask(mask):
    """mask as an int, read as _as_mask reads one; IndexOutOfRange unless
    it is a non-negative integer."""
    value = _integer(mask)
    if value is None:
        raise IndexOutOfRange(f"mask {mask!r} is not an integer")
    if value < 0:
        raise IndexOutOfRange(f"mask {value} is negative")
    return value


def bits(mask):
    """An iterator over the set bit positions of a mask, ascending."""
    return _bits(_nonnegative_mask(mask))


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements):
    """The mask of the elements; IndexOutOfRange unless each is an integer
    in [0, MAX_ORDER), an element of some carrier."""
    out = 0
    for x in elements:
        i = _integer(x)
        if i is None or not 0 <= i < MAX_ORDER:
            raise IndexOutOfRange(
                f"element {x!r} is not an integer in [0, {MAX_ORDER})")
        out |= 1 << i
    return out


def submasks(mask):
    """An iterator over every non-empty submask of mask, including mask
    itself."""
    return _submasks(_nonnegative_mask(mask))


def _submasks(mask):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _fits_power_table(semigroup):
    """True iff the carrier's order is at most POWER_CAP_MAX, so that
    every mask over it is below 64: its products are read off its cached
    power table, and a set of its masks is one uint64 word."""
    return semigroup.order <= POWER_CAP_MAX


def _power_table(semigroup):
    """The carrier's padded power table, the read-only uint8 (2**n, 2**n)
    array of _proved_power_stacks on a stack of one, reshaped, entry (X,
    Y) the mask of X * Y; built on first use and cached on the carrier."""
    if semigroup._power_table is None:
        (_, _, products), = _proved_power_stacks([semigroup])
        # A copy, not a view that would keep the stack's array alive.
        table = products.reshape(products.shape[:2]).copy()
        table.setflags(write=False)
        semigroup._power_table = table
    return semigroup._power_table


def family_products(semigroup, xs, ys):
    """The uint64 matrix whose entry (a, b) is the mask of xs[a] * ys[b].

    Every listed item must be a mask of a non-empty subset of the
    carrier, an integer in (0, 2**n), read as _as_mask reads one;
    anything else raises IndexOutOfRange.
    """
    checked = [_as_mask(semigroup, x) for x in xs]
    return _family_products(semigroup, checked, checked if ys is xs else
                            [_as_mask(semigroup, y) for y in ys])


def _family_products(semigroup, xs, ys):
    """family_products of masks known to be valid; not checked again.

    Over a carrier of order at most POWER_CAP_MAX the matrix is one
    row-then-column gather from its cached _power_table. Above it, a
    bit-DP over the listed masks: first the masks of {i} * ys[b] for
    every carrier element i, as the OR of 1 << i*j over the bits j of
    ys[b]; then xs[a] * ys[b] as the OR of {i} * ys[b] over the bits i of
    xs[a]. Each step is one masked OR-reduction over a zero-stride
    ndarray view of an (n, n) or (n, ky) array, never an (n, kx, ky)
    temporary, so memory is the result plus O(n * (kx + ky)) scratch.
    """
    if _fits_power_table(semigroup):
        rows = np.asarray(xs, dtype=np.intp)
        columns = rows if ys is xs else np.asarray(ys, dtype=np.intp)
        return _power_table(semigroup).take(rows, axis=0).take(
            columns, axis=1).astype(np.uint64)
    n = semigroup.order
    shifts = np.arange(n, dtype=np.uint64)[:, None]
    xbits = (np.asarray(xs, dtype=np.uint64) >> shifts & 1).astype(bool)
    ybits = xbits if ys is xs else (
        np.asarray(ys, dtype=np.uint64) >> shifts & 1).astype(bool)
    images = np.left_shift(np.uint64(1), semigroup.table.astype(np.uint64))
    kx, ky = xbits.shape[1], ybits.shape[1]
    # singles[i, b] is the mask of {i} * ys[b].
    singles = np.bitwise_or.reduce(
        np.ndarray((n, n, ky), np.uint64, images, 0, images.strides + (0,)),
        axis=1, where=ybits[None], initial=0)
    return np.bitwise_or.reduce(
        np.ndarray((n, kx, ky), np.uint64, singles, 0,
                   (singles.strides[0], 0, singles.strides[1])),
        axis=0, where=xbits[:, :, None], initial=0)


def _power_products(images):
    """The uint8 masks of X * Y at (X, Y, t), for all masks below 2**n,
    from images[i, j, t] = 1 << i*j over a table-innermost (n, n, k) stack
    of carrier tables, n <= POWER_CAP_MAX. By subset doubling, 2n ORs of
    whole blocks: {i} * (Y + {j}) = {i} * Y | images[i, j, t] for Y below
    2**j, as (2**j, n, k) blocks of singles with the masks Y first, then
    (X + {i}) * Y = X * Y | {i} * Y for X below 2**i, as (2**i, 2**n, k)
    blocks of products ORed with the one contiguous (2**n, k) row of
    {i} * Y, from one transposed copy of the singles, so that each OR
    runs over whole rows of products however few tables k counts."""
    n, _, k = images.shape
    singles = np.empty((1 << n, n, k), dtype=np.uint8)
    singles[0] = 0
    for j in range(n):
        np.bitwise_or(singles[:1 << j], images[:, j],
                      out=singles[1 << j:2 << j])
    singles = np.ascontiguousarray(singles.transpose(1, 0, 2))
    products = np.empty((1 << n, 1 << n, k), dtype=np.uint8)
    products[0] = 0
    for i in range(n):
        np.bitwise_or(products[:1 << i], singles[i],
                      out=products[1 << i:2 << i])
    return products


class SubsetElement:
    """A non-empty subset of one ambient semigroup's carrier."""

    __slots__ = ("semigroup", "mask")

    def __init__(self, semigroup, mask):
        self.semigroup = semigroup
        self.mask = _as_mask(semigroup, mask)

    @classmethod
    def _proved(cls, semigroup, mask):
        """The subset of a mask known to be valid; not checked again."""
        subset = object.__new__(cls)
        subset.semigroup, subset.mask = semigroup, mask
        return subset

    @classmethod
    def from_elements(cls, semigroup, elements):
        return cls(semigroup, mask_of(elements))

    def elements(self):
        return tuple(_bits(self.mask))

    def __contains__(self, x):
        x = _integer(x)
        return x is not None and x >= 0 and bool(self.mask >> x & 1)

    def __len__(self):
        return self.mask.bit_count()

    def __mul__(self, other):
        return setwise_product(self, other)

    def __eq__(self, other):
        return (isinstance(other, SubsetElement)
                and self.mask == other.mask
                and self.semigroup == other.semigroup)

    def __hash__(self):
        return hash((self.mask, self.semigroup))

    def __repr__(self):
        return f"SubsetElement({{{', '.join(map(str, self.elements()))}}})"


def _as_mask(semigroup, x):
    """The mask of x, an integer or a SubsetElement over the semigroup;
    IndexOutOfRange or AmbientMismatch for anything else."""
    if isinstance(x, SubsetElement):
        if x.semigroup != semigroup:
            raise AmbientMismatch("subset lives over a different ambient")
        return x.mask
    mask = _integer(x)
    if mask is None:
        raise IndexOutOfRange(f"mask {x!r} is not an integer")
    if not 0 < mask < 1 << semigroup.order:
        raise IndexOutOfRange(
            f"mask {mask} is not a non-empty subset of a carrier "
            f"of order {semigroup.order}")
    return mask


def _distinct_masks(semigroup, items):
    """The set of masks of the items, drawn only until FAMILY_MAX + 1
    distinct ones exceed the family ceiling; only items that are not a
    plain int in (0, 2**n) go through _as_mask."""
    top = 1 << semigroup.order
    masks = set()
    for x in items:
        masks.add(x if type(x) is int and 0 < x < top
                  else _as_mask(semigroup, x))
        if len(masks) > FAMILY_MAX:
            _check_family_size(len(masks))
    return masks


def setwise_product(x, y):
    """The subset {a*b : a in x, b in y}; both over the same ambient."""
    if x.semigroup != y.semigroup:
        raise AmbientMismatch("operands live over different ambient semigroups")
    product = _family_products(x.semigroup, [x.mask], [y.mask])
    return SubsetElement(x.semigroup, int(product[0, 0]))


def build_power_semigroup(semigroup):
    """Materialize the semigroup of all non-empty subsets of the carrier.

    The result has order 2**n - 1; its element k is the subset with mask
    k + 1, so the singleton {i} sits at index 2**i - 1. The table is the
    setwise product, proved as _proved_power_stacks says, so it is
    associative as S is, commutative iff S is, and has the identity {e}
    (index 2**e - 1) iff e is S's: U{x} = {x} = {x}U for all x makes
    every u in U an identity of S. It is build_power_semigroups of [S].
    """
    return build_power_semigroups([semigroup])[0]


def build_power_semigroups(semigroups):
    """build_power_semigroup of each carrier, in the order given: the
    tables of _proved_power_stacks with the empty set's row and column
    cut off and the masks renumbered, mask i + 1 as element i, written
    by one subtraction into a table-major (k, m, m) stack whose tables
    are the read-only FiniteSemigroup views."""
    semigroups = list(semigroups)
    powers = [None] * len(semigroups)
    for positions, carriers, products in _proved_power_stacks(semigroups):
        m, _, k = products[1:, 1:].shape
        tables = np.empty((k, m, m), dtype=np.uint8)
        np.subtract(products[1:, 1:].transpose(2, 0, 1), 1, out=tables)
        for p, power in zip(positions, _semigroups_from_stack(
                tables, [c.commutative for c in carriers],
                [None if c.identity is None else (1 << c.identity) - 1
                 for c in carriers])):
            powers[p] = power
    return powers


def power_fingerprints(semigroups):
    """fingerprint(build_power_semigroup(S)) for each carrier S, in the
    order given, read off the proved tables of _proved_power_stacks with
    the empty set in place; no table outlives its stack. P(S) has an
    identity iff S has, as build_power_semigroup says.

    Such a table is P(S) with the empty set adjoined as a zero, so
    _profile_rows gives the empty set the row (1, 1, 1, 1, 1, 2**n) and
    every set X its row in P(S) plus (0, 0, 0, 1, 1, 1): X * {} = {} =
    {} * X is one more distinct entry in X's row and in its column, and
    one more element that commutes with X. That row is dropped and the
    share subtracted, one uint64 subtraction per big-endian key, before
    the keys are sorted. One word buffer serves every stack.
    """
    semigroups = list(semigroups)
    found = [None] * len(semigroups)
    buffer = None
    for positions, carriers, products in _proved_power_stacks(semigroups):
        buffer = _word_buffer(buffer, products)
        keys = _profile_rows(products, buffer)[:, 1:]
        # Bytes 3, 4 and 5 of each key, the row size, column size and
        # commuting count, lose the empty set's 1 each. No borrow crosses
        # a byte: each of them is at least 1 for a non-empty set of the
        # padded table, which counts the empty set in all three.
        keys.view(">u8")[..., 0] -= 0x0000000101010000
        for p, carrier, profiles in zip(positions, carriers,
                                        _sorted_profiles(keys)):
            # tuple.__new__ skips the NamedTuple's generated __new__.
            found[p] = tuple.__new__(
                IsoFingerprint, (carrier.identity is not None, profiles))
    return found


def _proved_power_stacks(semigroups):
    """Yield the positions of the carriers of one stack in the list, the
    carriers, and their products as one table-innermost (2**n, 2**n, k)
    uint8 array, the entry at (X, Y, t) the mask of X * Y in table t:
    the table of P(S) with the empty set, mask 0, adjoined as a zero,
    its elements numbered by their masks.

    Carriers of one order n are multiplied over all masks by
    _power_products, _POWER_CELLS // 4**n tables a stack (128 at order
    5). With h the lowest element of a set of two or more, each table P
    must have P[{i}, {j}] = {i*j}, P[{i}, Y] = P[{i}, Y - {h}] |
    P[{i}, {h}], P[X, Y] = P[X - {h}, Y] | P[{h}, Y], P[{}, Y] = {}
    and P[{i}, {}] = {}, else TheoremViolation. By induction on |Y|,
    then on |X|, P is the setwise product over S with the empty set a
    zero: the recurrences alone leave the empty set's row and the
    entries P[{i}, {}] free, and the last one then gives P[X, {}] = {}.
    The build adds highest elements, so the check does not replay it.
    Every gather takes whole blocks along the first axis: the (2**n, k)
    rows P[X - {h}] and P[{h}] of the stack, and the (n, k) entries
    P[{i}, Y - {h}] and P[{i}, {h}] of one Y-major (2**n, n, k) copy of
    the singletons' rows.
    """
    for semigroup in semigroups:
        _check_cap(semigroup.order)
    for positions, tables in _table_stacks(
            semigroups, lambda n: max(1, _POWER_CELLS // 4 ** n)):
        images = 1 << tables
        products = _power_products(images)
        singles = 1 << np.arange(tables.shape[0])
        masks = np.arange(2 * singles[-1])
        lows = masks & -masks
        # columns[Y, i, t] = {i} * Y, so that every gather takes blocks.
        columns = np.ascontiguousarray(
            np.take(products, singles, axis=0).transpose(1, 0, 2))
        if not ((np.take(columns, singles, axis=0)
                 == images.transpose(1, 0, 2)).all()
                and (columns == np.take(columns, masks - lows, axis=0)
                     | np.take(columns, lows, axis=0)).all()
                and (products == np.take(products, masks - lows, axis=0)
                     | np.take(products, lows, axis=0)).all()
                and not np.count_nonzero(products[0])
                and not np.count_nonzero(columns[0])):
            raise TheoremViolation("a power table is not the setwise product")
        yield positions, [semigroups[p] for p in positions], products


@dataclass(frozen=True)
class CompletenessCertificate:
    """Outcome of a downward-completeness check.

    When ok is False, failed names the broken condition ("closure",
    "coverage", or "subsets") and witness carries the offending data:
    a pair of member masks and their product for closure, a missing
    carrier element for coverage, or a member and its missing subset.
    """

    ok: bool
    failed: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


class SubsetFamily:
    """A deduplicated family of non-empty subsets over one ambient.

    Masks are kept sorted; membership is answered by a dict from mask
    to position. Construction validates the masks once, then computes
    the uint64 matrix of all member products as family_products does,
    without checking them again (8 * k**2 bytes for k members, at most
    FAMILY_MAX of them), and, from it, the closure and
    downward-completeness flags: over a carrier of order at most
    POWER_CAP_MAX by the word tests of downward_completeness alone,
    without a certificate, above it by downward_completeness itself.
    The matrix also serves as_semigroup,
    the brute-force cancellativity classifier and the witnesses.
    Instances are immutable afterwards.
    """

    __slots__ = ("semigroup", "masks", "products", "is_subsemigroup",
                 "is_downward_complete", "_positions", "_materialized")

    def __init__(self, semigroup, masks):
        cleaned = sorted(_distinct_masks(semigroup, masks))
        if not cleaned:
            raise IndexOutOfRange("a subset family must be non-empty")
        self.semigroup = semigroup
        self.masks = cleaned
        self._positions = {m: i for i, m in enumerate(cleaned)}
        self.products = _family_products(semigroup, cleaned, cleaned)
        self.products.setflags(write=False)
        if _fits_power_table(semigroup):
            # The word tests alone decide both flags; the certificates
            # are left to downward_completeness.
            members = self._members_word()
            self.is_subsemigroup = self._products_within(members)
            self.is_downward_complete = (
                self.is_subsemigroup and not _uncovered(self)
                and _removals_are_members(members, semigroup.order))
        else:
            cert = downward_completeness(self)
            self.is_subsemigroup = cert.failed != "closure"
            self.is_downward_complete = cert.ok
        self._materialized = None

    def _product_indices(self):
        """Member index of every product, and whether it is a member."""
        sorted_masks = np.array(self.masks, dtype=np.uint64)
        idx = np.searchsorted(sorted_masks, self.products)
        np.minimum(idx, len(self.masks) - 1, out=idx)
        return idx, sorted_masks[idx] == self.products

    def _members_word(self):
        """The set of members as one int, bit m set iff mask m is a
        member: below 2**64 over a carrier of order at most
        POWER_CAP_MAX."""
        members = 0
        for m in self.masks:
            members |= 1 << m
        return members

    def _products_within(self, members):
        """True iff every product of two members is a member, over a
        carrier of order at most POWER_CAP_MAX, by one word comparison:
        the set of the products, the OR of 1 << product, is a subset of
        members, the _members_word."""
        produced = np.bitwise_or.reduce(
            np.uint64(1) << self.products, axis=None)
        return not int(produced) & ~members

    def _closure_witness(self, members=None):
        """The first pair of members, in row-major order, whose product
        is not a member, with that product; None for a closed family.
        Over a carrier of order at most POWER_CAP_MAX _products_within,
        on the _members_word that the caller may pass, tells a closed
        family; the scan for the certificate runs only on a family that
        fails it."""
        if _fits_power_table(self.semigroup):
            if members is None:
                members = self._members_word()
            if self._products_within(members):
                return None
        _, member = self._product_indices()
        if member.all():
            return None
        a, b = np.argwhere(~member)[0]
        return self.masks[a], self.masks[b], int(self.products[a, b])

    def __contains__(self, mask):
        try:
            self.index(mask)
        except IndexOutOfRange:
            return False
        return True

    def index(self, mask):
        """The position of a member. An exact int, or a SubsetElement over
        this very ambient object, is looked up as it is; other inputs, and
        misses, go through _as_mask, so a member found is always valid."""
        key = (mask.mask if isinstance(mask, SubsetElement)
               and mask.semigroup is self.semigroup else mask)
        i = self._positions.get(key) if type(key) is int else None
        if i is None:
            key = _as_mask(self.semigroup, mask)
            i = self._positions.get(key)
            if i is None:
                raise IndexOutOfRange(f"mask {key} is not a member")
        return i

    def __iter__(self):
        return iter(self.masks)

    def __len__(self):
        return len(self.masks)

    def __eq__(self, other):
        return (isinstance(other, SubsetFamily)
                and self.semigroup == other.semigroup
                and self.masks == other.masks)

    def __hash__(self):
        return hash((self.semigroup, tuple(self.masks)))

    def __repr__(self):
        return (f"SubsetFamily(order={self.semigroup.order}, "
                f"members={len(self.masks)})")

    def as_semigroup(self):
        """Materialize the family as an abstract semigroup.

        Element i of the result is the i-th smallest member mask. Only
        product-closed families can be materialized.
        """
        if not self.is_subsemigroup:
            raise PreconditionViolated("family is not closed under products")
        if self._materialized is None:
            self._materialized = FiniteSemigroup(self._product_indices()[0])
        return self._materialized


def downward_completeness(family):
    """Certificate-producing downward-completeness check.

    Requires closure under setwise products, coverage of every carrier
    element by some member, and closure under non-empty subsets of
    members. For the last, only the removals m - {b} of one element b
    are looked up: the least member m missing a non-empty subset s also
    misses m - {b} for b in m - s, which contains s and, being smaller
    than m, would otherwise fail first. So the same member fails first,
    and only its submasks are scanned for the certificate's subset.
    Over a carrier of order at most POWER_CAP_MAX, the members word of
    the closure test answers for every removal at once, by
    _removals_are_members; the scan of the position dict runs above it,
    and for the certificate of a family that fails the word test.
    """
    members = (family._members_word()
               if _fits_power_table(family.semigroup) else None)
    witness = family._closure_witness(members)
    if witness is not None:
        return CompletenessCertificate(False, "closure", witness)
    missing = _uncovered(family)
    if missing:
        return CompletenessCertificate(
            False, "coverage", ((missing & -missing).bit_length() - 1,))
    if members is not None and _removals_are_members(
            members, family.semigroup.order):
        return CompletenessCertificate(True)
    positions = family._positions
    for m in family.masks:
        rest = m if m & (m - 1) else 0
        while rest and m ^ (rest & -rest) in positions:
            rest &= rest - 1
        if rest:
            sub = next(s for s in _submasks(m) if s not in positions)
            return CompletenessCertificate(False, "subsets", (m, sub))
    return CompletenessCertificate(True)


def _uncovered(family):
    """The mask of the carrier elements that lie in no member."""
    covered = 0
    for m in family.masks:
        covered |= m
    return ((1 << family.semigroup.order) - 1) & ~covered


# _HAS_ELEMENT[b] is the word of every mask below 64 that holds element
# b: bit m set iff m >> b & 1.
_HAS_ELEMENT = tuple(sum(1 << m for m in range(64) if m >> b & 1)
                     for b in range(POWER_CAP_MAX))


def _removals_are_members(members, n):
    """True iff m - {b} is a member for every member m of two or more
    elements and every b in m, with members the word of member masks
    over a carrier of order n <= POWER_CAP_MAX: for each b, the members
    that hold b and are not {b} itself, shifted down by 2**b onto their
    removals, must lie inside the word."""
    removals = 0
    for b in range(n):
        step = 1 << b
        removals |= (members & _HAS_ELEMENT[b] & ~(1 << step)) >> step
    return not removals & ~members


def full_family(semigroup):
    """The family of all non-empty subsets of the carrier."""
    _check_cap(semigroup.order)
    return SubsetFamily(semigroup, range(1, 1 << semigroup.order))


def singleton_family(semigroup):
    """The family of all one-element subsets, the minimum downward-complete one."""
    return SubsetFamily(semigroup, (1 << x for x in range(semigroup.order)))


def downward_complete_closure(semigroup, generators=()):
    """Least downward-complete subsemigroup containing the generators.

    Iterates from all singletons plus the generators: each round adds
    the non-empty subsets of the fresh masks and builds the SubsetFamily
    of all members so far; the first round whose family is closed under
    products is the result, and otherwise its non-member products are
    the next fresh masks. Idempotent and monotone in the generator set.
    """
    fresh = _distinct_masks(semigroup, chain(
        (1 << x for x in range(semigroup.order)), generators))
    members = set()
    while True:
        for m in fresh:
            # Every member's subsets join the closure, so each count
            # bounds its size from below.
            _check_family_size((1 << m.bit_count()) - 1)
            members.update(_submasks(m))
            _check_family_size(len(members))
        family = SubsetFamily(semigroup, members)
        if family.is_subsemigroup:
            return family
        fresh = set(family.products.ravel().tolist()) - members


def congruence_family(congruence):
    """All non-empty subsets of each congruence class, as one family."""
    return SubsetFamily(congruence.semigroup, chain.from_iterable(
        _submasks(mask_of(cls)) for cls in congruence.classes))


def family_report(family):
    """JSON-ready summary of a family."""
    return {
        "ambient_order": family.semigroup.order,
        "members": list(family.masks),
        "downward_complete": family.is_downward_complete,
        "subsemigroup": family.is_subsemigroup,
    }
