"""
Admissible residue classes of prime-ideal norms
===============================================

Modulo q, norms of prime ideals do not hit every residue class: they land
in a fixed subgroup of the units.  For the rationals that subgroup is
everything; for a quadratic field it is cut out by a quadratic symbol once
the conductor divides q; for a cyclotomic field it is the classes that are
1 modulo (a canonical divisor of) the level.

The closed-form subgroup is cross-checked here against a purely empirical
one: take actual primes, reduce p^f mod q, and close up multiplicatively.
"""

from normvar import (
    class_table_rows,
    norm_class_closure,
    norm_class_group,
    parse_field,
)
from normvar.arith import euler_phi

gauss = parse_field("quad:-1")

print("admissible classes for quad:-1")
print("q   members")
for q in (4, 5, 8, 12, 16, 20):
    print(f"{q:<3} {norm_class_group(gauss, q).members}")

# Norms of odd split primes are 1 mod 4, inert squares are 1 mod 8 or 9 mod
# 16, and so on -- the table above is exactly the subgroup those generate.

print("\nclosed form vs empirical closure (primes up to 10^4), q <= 60")
mismatches = 0
for label in ("Q", "quad:-1", "quad:5", "cyclo:5"):
    field = parse_field(label)
    for q in range(1, 61):
        if norm_class_closure(field, q, 10**4) != norm_class_group(field, q).members:
            mismatches += 1
print(f"mismatches: {mismatches}")

# Character-side picture: the annihilator is the set of characters trivial
# on the subgroup, and |subgroup| * |annihilator| = phi(q) exactly.
print("\nindex identity |G_q| * |G_q^perp| == phi(q) for cyclo:5")
print("q   |G_q| |perp| phi(q)")
for q in (7, 11, 25, 31, 55):
    group = norm_class_group(parse_field("cyclo:5"), q)
    perp = group.annihilator
    print(f"{q:<3} {group.order:<5} {len(perp):<6} {euler_phi(q)}")
    assert group.order * len(perp) == euler_phi(q)

# The same data in the CSV layout the command-line tool emits.
print("\nfirst rows of the class table for quad:-1")
for row in class_table_rows(gauss, range(1, 9)):
    print(row)
