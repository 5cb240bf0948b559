"""The committed order-5 catalog and seeded relabelings of its carriers.

``data/order5_catalog.json`` holds the 1,915 tables that
``python -m powersemi enumerate --order 5 --long-running`` printed at
commit 4746e749d0438e729dcab7e858788194d352be31 (stdout sha256
ace40695d0a6b5c89e9b278f2e3df2b469fbd4382202547c65751433f98f1570,
702,911 bytes), re-serialised one table per line. Loading checks the
file digest, the class counts against OEIS and every table through
``FiniteSemigroup``, so a stale or edited fixture stops the run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

CATALOG = Path(__file__).resolve().parent / "data" / "order5_catalog.json"
CATALOG_SHA256 = \
    "3bf98a16dc92bfd3057b772267753520a80903222cb3523fea6b8cc2fcbe6532"
ORDER = 5
CLASSES = 1915        # OEIS A027851(5)
COMMUTATIVE = 325     # OEIS A023815(5)


class FixtureError(Exception):
    """The committed catalog does not match its recorded digest or counts."""


def load_catalog(finite_semigroup, path=CATALOG):
    """Validated carriers of the order-5 catalog, in catalog order.

    finite_semigroup is the program's FiniteSemigroup class; its
    constructor rejects non-associative tables.
    """
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != CATALOG_SHA256:
        raise FixtureError(
            f"{path}: sha256 {digest}, expected {CATALOG_SHA256}")
    report = json.loads(raw)
    tables = report["tables"]
    carriers = [finite_semigroup(table) for table in tables]
    commutative = sum(1 for s in carriers if s.commutative)
    if (report["order"], report["classes"], len(carriers), commutative) != \
            (ORDER, CLASSES, CLASSES, COMMUTATIVE):
        raise FixtureError(
            f"{path}: order {report['order']}, {len(carriers)} classes, "
            f"{commutative} commutative; expected {ORDER}, {CLASSES}, "
            f"{COMMUTATIVE}")
    if any(s.order != ORDER for s in carriers):
        raise FixtureError(f"{path}: a table is not of order {ORDER}")
    return carriers


def relabel(table, perm):
    """The table of the copy of a semigroup whose element x is renamed
    perm[x]: (perm x)(perm y) = perm(x y)."""
    arr = np.asarray(table)
    perm = np.asarray(perm)
    inv = np.argsort(perm)
    return perm[arr[np.ix_(inv, inv)]].tolist()


def is_isomorphism(source_table, target_table, mapping):
    """Independent check that mapping is a bijective homomorphism."""
    src = np.asarray(source_table)
    dst = np.asarray(target_table)
    m = np.asarray(mapping)
    n = src.shape[0]
    if m.shape != (n,) or dst.shape != (n, n):
        return False
    if sorted(m.tolist()) != list(range(n)):
        return False
    return bool(np.array_equal(m[src], dst[np.ix_(m, m)]))
