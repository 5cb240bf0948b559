"""The two infinite carriers: numerical monoids and free word semigroups.

Numerical monoids are commutative and cancellative, so inside their
finite-subset algebra only singletons cancel, and the witness
construction exhibits the failure for anything larger. Free words are
cancellative but not commutative, and there the story flips: a set of
distinct letters cancels despite not being a singleton.

Run:  python demos/additive_and_free_carriers.py
"""

from powersemi import NumericalMonoid, cancellativity_campaign, word_product

print("=" * 72)
print("Numerical monoids: gaps and the Frobenius number")
print("=" * 72)
for gens in ((2, 3), (3, 5), (4, 6, 9), (5, 8, 11)):
    monoid = NumericalMonoid(gens)
    print(f"<{', '.join(map(str, gens))}>: gaps={list(monoid.gaps)}, "
          f"frobenius={monoid.frobenius}")

print()
print("equality is decided by gap sets:")
print("  <2,3> == <2,3,5> :",
      NumericalMonoid((2, 3)) == NumericalMonoid((2, 3, 5)))
print("  <2,3> == <3,4,5> :",
      NumericalMonoid((2, 3)) == NumericalMonoid((3, 4, 5)))

print()
print("=" * 72)
print("Sumset witness: {2,3} cannot cancel inside <2,3>")
print("=" * 72)
monoid = NumericalMonoid((2, 3))
witness = monoid.witness_noncancellative({2, 3})
print(f"lhs = {sorted(witness.lhs)}, rhs = {sorted(witness.rhs)} (distinct)")
print(f"{sorted(witness.multiplier)} + lhs = "
      f"{sorted(monoid.sumset(witness.multiplier, witness.lhs))}")
print(f"{sorted(witness.multiplier)} + rhs = "
      f"{sorted(monoid.sumset(witness.multiplier, witness.rhs))}")

print()
print("=" * 72)
print("Free words: letter sets separate word sets")
print("=" * 72)
a, b = 0, 1
ys1 = {(a, b)}
ys2 = {(a, b), (b,)}
letters = {(a,), (b,)}
print(f"X = {{a, b}}, Y1 = {{ab}}, Y2 = {{ab, b}}")
print(f"X*Y1 = {sorted(word_product(letters, ys1))}")
print(f"X*Y2 = {sorted(word_product(letters, ys2))}")
print("different sets, different products, exactly as cancellation demands")

print()
report = cancellativity_campaign(alphabet=4, trials=2000, seed=0)
print(f"randomized campaign: {report['trials']} trials, "
      f"{len(report['violations'])} separation failures, "
      f"{len(report['disjointness_failures'])} disjointness failures")
