"""
Prime-power norm events and their moments
=========================================

A "norm event" at n = p^k records that some prime ideal power has norm n.
Each event carries a multiplicity dk (how many prime ideals above p
contribute) and a weight lam = f * log p.  The first moment

    S1(x) = sum dk * lam  over events with n <= x

tracks x itself, which is the prime-ideal counting theorem in weighted
form; the second moment S2 controls the large-sieve bound later on.
"""

import math

from normvar import event_columns, event_moment_sums, parse_field

gauss = parse_field("quad:-1")

print("events with norm <= 30 in quad:-1")
print("n   p  k  dk  lam")
for n, p, k, dk, lam in zip(*(column.tolist() for column in event_columns(gauss, 30))):
    print(f"{n:<3} {p:<2} {k}  {dk}   {lam:.6f}")

# 5 splits, so n = 5 arrives with multiplicity 2; 3 is inert, so its first
# event sits at n = 9 with the doubled weight 2*log(3).

print("\nS1(x)/x for growing x (should drift toward 1)")
for label in ("Q", "quad:-1", "quad:5", "cyclo:5"):
    field = parse_field(label)
    row = [f"{event_moment_sums(field, 10**e)[0] / 10**e:.4f}" for e in (3, 4, 5, 6)]
    print(f"{label:<8} {' '.join(row)}")

# The ratio S2/(x log x) stays bounded: each weight is at most deg * log x.
x = 10**5
for label in ("Q", "cyclo:5"):
    field = parse_field(label)
    s1, s2 = event_moment_sums(field, x)
    print(f"\n{label}: S1 = {s1:.1f}, S2 = {s2:.1f}, "
          f"S2/(x log x) = {s2 / (x * math.log(x)):.3f}")
