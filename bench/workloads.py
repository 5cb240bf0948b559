"""The four benchmark workloads and the checks on every output they get.

Each workload builds its inputs from the seed in ``__init__`` (timed as
set-up) and then runs numbered ops. ``op(i, program, counts)`` returns
``(status, detail)`` with status ``"ok"``, ``"wrong"`` (an output failed
a check) or ``"missed"`` (the op ran past its deadline). ``program`` is a
namespace of powersemi functions, plain or traced, so a test can swap in
a corrupted one. ``counts`` collects the per-layer counters that only
the benchmark can see, such as classifier agreement.

The benchmark trusts none of the program's own ``assert`` checks, which
vanish under ``python -O``: every map, witness, classification and
report is re-checked here with explicit comparisons.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

from fixture import is_isomorphism, load_catalog, relabel
from spans import instrumented

API = ("FiniteSemigroup", "CatalogEntry", "associative_tables",
       "enumerate_semigroups", "global_iso_probe",
       "singleton_characterization_check", "build_power_semigroup",
       "full_family", "congruence_family", "downward_complete_closure",
       "all_congruences", "fingerprint", "find_isomorphism",
       "lift_isomorphism", "cancellative_elements_bruteforce",
       "singleton_cancellative_elements", "witness_noncancellative",
       "verify_witness")

# Published counts, independent of this code.
CLASSES = {1: 1, 2: 5, 3: 24, 4: 188, 5: 1915}          # OEIS A027851
COMMUTATIVE = {1: 1, 2: 3, 3: 12, 4: 58, 5: 325}        # OEIS A023815
LABELED = {1: 1, 2: 8, 3: 113, 4: 3492}                 # OEIS A023814

# `enumerate --order 4` stdout at 4746e749d0438e729dcab7e858788194d352be31.
ENUMERATE4_SHA256 = \
    "2fdb17a5b57725df8616164f2f047bdb36a687ab38417574821b5193a6c3c92b"
# prop1-check --order 4 classifies 1 full family, one family per
# congruence and 3 closures for each of the 74 commutative carriers.
PROP1_FAMILIES = 739
# Pairs of classes whose power semigroups share a fingerprint: none at
# order 4; at order 5, 5 of 1,832,655 (1,910 buckets), none isomorphic.
SURVIVORS = {4: 0, 5: 5}


def plain_program():
    import powersemi
    return SimpleNamespace(**{name: getattr(powersemi, name) for name in API})


def bell(n):
    """Number of set partitions of an n-set."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def _count(*pairs):
    """A note callback adding fixed or computed amounts to counters."""
    def note(tracer, args, result):
        for key, amount in pairs:
            tracer.counts[key] += amount(args, result)
    return note


_ONE = lambda args, result: 1  # noqa: E731
_LEN = lambda args, result: len(result)  # noqa: E731

# api name, span name, counters, module restriction.
SPANS = (
    ("associative_tables", "catalog.generate",
     _count(("catalog.generate.tables", _LEN)), None),
    ("enumerate_semigroups", "catalog.enumerate",
     _count(("catalog.enumerate.kept", _LEN)), None),
    ("global_iso_probe", "catalog.probe", None, None),
    ("singleton_characterization_check", "catalog.prop1", None, None),
    ("build_power_semigroup", "power.build",
     _count(("power.build.calls", _ONE),
            ("power.build.products", lambda a, r: r.order * r.order)), None),
    # Only the power module's binding: the class itself must stay intact.
    ("FiniteSemigroup", "semigroups.validate", None, "powersemi.power"),
    ("full_family", "power.family",
     _count(("power.family.calls", _ONE), ("power.family.members", _LEN)),
     None),
    ("congruence_family", "power.family",
     _count(("power.family.calls", _ONE), ("power.family.members", _LEN)),
     None),
    ("downward_complete_closure", "power.family",
     _count(("power.family.calls", _ONE), ("power.family.members", _LEN)),
     None),
    ("all_congruences", "semigroups.congruences",
     _count(("semigroups.congruences.partitions",
             lambda a, r: bell(a[0].order)),
            ("semigroups.congruences.found", _LEN)), None),
    ("fingerprint", "morphisms.fingerprint",
     _count(("morphisms.fingerprint.calls", _ONE)), None),
    ("find_isomorphism", "morphisms.search",
     _count(("morphisms.search.calls", _ONE),
            ("morphisms.search.hits", lambda a, r: r is not None)), None),
    ("lift_isomorphism", "morphisms.lift", None, None),
    ("cancellative_elements_bruteforce", "cancellation.bruteforce",
     _count(("cancellation.bruteforce.members", lambda a, r: len(a[0]))),
     None),
    ("singleton_cancellative_elements", "cancellation.rule", None, None),
    ("witness_noncancellative", "cancellation.witness",
     _count(("cancellation.witness.built", _ONE)), None),
)


def traced_program(tracer, plain):
    """The traced namespace and the patch list that routes the program's
    own cross-module calls through the same wrappers."""
    program = SimpleNamespace(**vars(plain))
    targets = []
    for api_name, span_name, note, only in SPANS:
        func = getattr(plain, api_name)
        body = func
        if api_name == "associative_tables":
            # A generator returns at once; materialise so the span covers
            # the generation and not the consumer's filtering.
            def body(n, _gen=func):
                return list(_gen(n))
        wrapper = tracer.wrap(span_name, body, note)
        if only is None:
            setattr(program, api_name, wrapper)
        targets.append((func, wrapper, only))
    return program, instrumented(targets)


def clear_caches():
    """Drop every functools cache in powersemi, as a fresh process would
    start without them (the catalog memoises enumerate_semigroups)."""
    for name, module in list(sys.modules.items()):
        if name.startswith("powersemi") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def check_probe_report(report, order, survivors):
    """None if a probe report has the pinned counts, else why not."""
    pairs = CLASSES[order] * (CLASSES[order] - 1) // 2
    want = {"order": order, "classes": CLASSES[order], "pairs_checked": pairs,
            "pruned_by_fingerprint": pairs - survivors, "counterexamples": []}
    got = {key: report.get(key) for key in want}
    return None if got == want else f"probe report {got}, expected {want}"


def check_probe(report, entries, survivors, counts):
    """check_probe_report, plus: the survivors are the pairs left by the
    entries' own fingerprint buckets."""
    order = entries[0].semigroup.order
    reason = check_probe_report(report, order, survivors)
    if reason is not None:
        return reason
    sizes = Counter(Counter(e.power_fingerprint() for e in entries).values())
    bucketed = sum(k * (k - 1) // 2 * times for k, times in sizes.items())
    counts["morphisms.fingerprint.buckets"] += sum(sizes.values())
    counts["morphisms.fingerprint.largest_bucket"] += max(sizes)
    counts["morphisms.fingerprint.survivor_pairs"] += bucketed
    counts["catalog.probe.calls"] += 1
    counts["catalog.probe.pairs"] += report["pairs_checked"]
    counts["catalog.probe.pruned"] += report["pruned_by_fingerprint"]
    if bucketed != survivors:
        return f"the entries' fingerprints leave {bucketed} pairs, " \
               f"the report {survivors}"
    return None


def check_prop1(report, seed):
    want = {"order": 4, "seed": seed,
            "commutative_semigroups": sum(COMMUTATIVE[n] for n in range(1, 5)),
            "families_checked": PROP1_FAMILIES, "violations": []}
    got = {key: report.get(key) for key in want}
    return None if got == want else f"prop1 report {got}, expected {want}"


def check_cli_output(label, returncode, stdout, seed):
    """None if a CLI run's exit code and report are right, else why not."""
    if returncode != 0:
        return f"{label} exited {returncode}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"{label} printed no JSON report: {exc}"
    if label == "enumerate":
        if report.get("classes") != CLASSES[4] or \
                len(report.get("tables", ())) != CLASSES[4]:
            return f"enumerate reported {report.get('classes')} classes"
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != ENUMERATE4_SHA256:
            return f"enumerate report sha256 {digest} differs from the pin"
        return None
    if label == "probe":
        return check_probe_report(report, 4, SURVIVORS[4])
    return check_prop1(report, seed)


def check_families(program, families, counts):
    """Classify every family both ways and witness every non-singleton
    member of the downward-complete ones; None or the first mismatch."""
    for family in families:
        brute = {m.mask for m in
                 program.cancellative_elements_bruteforce(family)}
        rule = {m.mask for m in
                program.singleton_cancellative_elements(family)}
        counts["cancellation.families"] += 1
        if brute != rule:
            return f"classifiers disagree on {family.masks}: {brute} != {rule}"
        counts["cancellation.agree"] += 1
        if not family.is_downward_complete:
            continue
        for mask in family.masks:
            if mask.bit_count() < 2:
                continue
            witness = program.witness_noncancellative(mask, family)
            if witness.multiplier.mask != mask or \
                    not program.verify_witness(witness, family) or \
                    witness.lhs.mask == witness.rhs.mask or \
                    witness.lhs.mask not in family or \
                    witness.rhs.mask not in family:
                return f"witness for {mask} in {family.masks} fails: " \
                       f"{witness.report()}"
            counts["cancellation.witness.verified"] += 1
    return None


def child_env(root):
    """Environment for the processes the benchmark starts: powersemi from
    the checkout, and bytecode caches written there and reused whatever
    the caller's PYTHONDONTWRITEBYTECODE, as an installed package has."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    src = os.path.join(root, "src")
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not path else src + os.pathsep + path
    return env


def run_child(argv, cwd, env, stdin=b""):
    """Run one child to completion; (stdout, exit code, peak RSS in KiB)."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    reaped = False
    try:
        proc.stdin.write(stdin)
        proc.stdin.close()
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
        proc.returncode = os.waitstatus_to_exitcode(status)
        return out, proc.returncode, usage.ru_maxrss
    finally:
        if not reaped:
            proc.kill()
            proc.wait()
        proc.stdout.close()


class CliOrder4:
    """Fresh `python -m powersemi` processes: enumerate, probe, prop1-check."""

    name = "cli-order4"
    deadline_s = 60.0
    in_process = False

    def __init__(self, root, seed, program):
        self.root = root
        self.seed = seed
        self.env = child_env(root)
        base = [sys.executable, "-m", "powersemi"]
        self.commands = (
            ("enumerate", base + ["enumerate", "--order", "4"]),
            ("probe", base + ["probe", "--order", "4"]),
            ("prop1", base + ["prop1-check", "--order", "4",
                              "--seed", str(seed)]),
        )
        self.rss_kb = 0
        self.report_bytes = []
        # Warm-up: writes the bytecode caches, so no timed child compiles.
        self.startup_ms()

    def startup_ms(self):
        """Wall time of a trivial `validate` on a 1-element table."""
        argv = [sys.executable, "-m", "powersemi", "validate",
                "--table", "/dev/stdin"]
        start = time.perf_counter()
        out, code, _ = run_child(argv, self.root, self.env, b"1\n0\n")
        elapsed = (time.perf_counter() - start) * 1000
        if code != 0 or json.loads(out).get("order") != 1:
            raise RuntimeError(
                f"validate of a 1-element table failed: {out!r}")
        return elapsed

    def label(self, i):
        return self.commands[i % len(self.commands)][0]

    def op(self, i, program, counts):
        label, argv = self.commands[i % len(self.commands)]
        out, code, rss_kb = run_child(argv, self.root, self.env)
        self.rss_kb = max(self.rss_kb, rss_kb)
        self.report_bytes.append(len(out))
        reason = check_cli_output(label, code, out, self.seed)
        return ("ok", label) if reason is None else ("wrong", reason)

    def traced_op(self, i, program, counts):
        """The same command replayed in-process, with caches cleared as a
        fresh process would have them."""
        label = self.label(i)
        clear_caches()
        if label == "enumerate":
            entries = program.enumerate_semigroups(4)
            if len(entries) != CLASSES[4]:
                return "wrong", f"enumerate kept {len(entries)} classes"
            return "ok", label
        if label == "probe":
            entries = program.enumerate_semigroups(4)
            report = program.global_iso_probe(4, entries=entries)
            reason = check_probe(report, entries, SURVIVORS[4], counts)
        else:
            report = program.singleton_characterization_check(
                4, seed=self.seed)
            counts["cancellation.families"] += report["families_checked"]
            counts["cancellation.agree"] += \
                report["families_checked"] - len(report["violations"])
            reason = check_prop1(report, self.seed)
        return ("ok", label) if reason is None else ("wrong", reason)

    def check_labeled(self, program):
        """The traced run's cross-check of labeled tables against A023814."""
        tables = list(program.associative_tables(4))
        if len(tables) != LABELED[4]:
            return f"associative_tables(4) gave {len(tables)} tables"
        return None


class ProbeOrder5:
    """Whole global_iso_probe passes over relabeled order-5 carriers."""

    name = "probe-order5"
    deadline_s = 120.0
    in_process = True

    def __init__(self, root, seed, program):
        rng = random.Random(seed)
        carriers = load_catalog(program.FiniteSemigroup)
        self.carriers = []
        for carrier in carriers:
            perm = list(range(carrier.order))
            rng.shuffle(perm)
            copy = program.FiniteSemigroup(relabel(carrier.rows, perm))
            self.carriers.append((copy, program.fingerprint(copy)))

    def label(self, i):
        return "probe"

    def op(self, i, program, counts):
        entries = [program.CatalogEntry(s, (5, k), fp)
                   for k, (s, fp) in enumerate(self.carriers)]
        report = program.global_iso_probe(5, entries=entries)
        reason = check_probe(report, entries, SURVIVORS[5], counts)
        return ("ok", "probe") if reason is None else ("wrong", reason)

    traced_op = op


class TransferOrder5:
    """Carrier isomorphism and its lift to the power semigroups."""

    name = "transfer-order5"
    # An op takes a few ms; the deadline only stops a hang.
    deadline_s = 10.0
    # A fresh power-level search can run for minutes (a search defect), so
    # it is no op of the workload: the traced run makes one pass of them
    # over every pair and counts the ones past this deadline.
    search_deadline_s = 0.25
    in_process = True

    def __init__(self, root, seed, program):
        rng = random.Random(seed)
        carriers = load_catalog(program.FiniteSemigroup)
        order = list(range(len(carriers)))
        rng.shuffle(order)
        self.pairs = []
        for idx in order:
            perm = list(range(5))
            rng.shuffle(perm)
            source = carriers[idx]
            target = program.FiniteSemigroup(relabel(source.rows, perm))
            self.pairs.append(((5, idx), source, target))

    def label(self, i):
        return self.pairs[i % len(self.pairs)][0]

    def op(self, i, program, counts):
        cid, source, target = self.pairs[i % len(self.pairs)]
        small = program.find_isomorphism(source, target)
        if small is None or \
                not is_isomorphism(source.rows, target.rows, small.mapping):
            return "wrong", f"{cid}: no verified carrier isomorphism"
        big = program.lift_isomorphism(small)
        images = []
        for mask in range(1, 1 << source.order):
            image = 0
            for x in range(source.order):
                if mask >> x & 1:
                    image |= 1 << small.mapping[x]
            images.append(image - 1)
        if list(big.mapping) != images or \
                not is_isomorphism(big.source.rows, big.target.rows, images):
            return "wrong", f"{cid}: lifted map is not the elementwise image"
        return "ok", cid

    traced_op = op

    def power_search(self, i, program, counts):
        """A fresh search for an isomorphism P(S) -> P(πS), checked."""
        cid, source, target = self.pairs[i % len(self.pairs)]
        big_source = program.build_power_semigroup(source)
        big_target = program.build_power_semigroup(target)
        found = program.find_isomorphism(big_source, big_target)
        if found is None or \
                not is_isomorphism(big_source.rows, big_target.rows,
                                   found.mapping):
            return "wrong", f"{cid}: no verified power isomorphism"
        return "ok", cid


class ClassifyOrder5:
    """Both classifiers and the witness construction on order-5 families."""

    name = "classify-order5"
    deadline_s = 60.0
    in_process = True
    closures = 3

    def __init__(self, root, seed, program):
        rng = random.Random(seed)
        carriers = load_catalog(program.FiniteSemigroup)
        chosen = [(k, s) for k, s in enumerate(carriers) if s.commutative]
        rng.shuffle(chosen)
        self.inputs = []
        for k, carrier in chosen:
            gens = []
            for _ in range(self.closures):
                count = rng.randint(0, 2)
                gens.append([rng.randrange(1, 1 << carrier.order)
                             for _ in range(count)])
            self.inputs.append(((5, k), carrier, gens))

    def label(self, i):
        return self.inputs[i % len(self.inputs)][0]

    def op(self, i, program, counts):
        cid, carrier, gens = self.inputs[i % len(self.inputs)]
        families = [program.full_family(carrier)]
        families.extend(program.congruence_family(c)
                        for c in program.all_congruences(carrier))
        families.extend(program.downward_complete_closure(carrier, g)
                        for g in gens)
        reason = check_families(program, families, counts)
        return ("ok", cid) if reason is None else ("wrong", f"{cid}: {reason}")

    traced_op = op


WORKLOADS = {w.name: w for w in (CliOrder4, ProbeOrder5, TransferOrder5,
                                 ClassifyOrder5)}
