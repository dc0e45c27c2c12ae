"""
Variance of norm counts across residue classes
==============================================

For each modulus q the weighted count of norm events in a class a is
compared with its expected share x/phi_K(q); squaring and summing the
deviations over all admissible classes and all q <= Q gives the variance
V(x, Q).  The headline bound says V stays below a constant times
x * Q * log x once Q is within a power-of-log window of x.
"""

import math

import numpy as np

from normvar import orthogonality_check, parse_field, variance

field = parse_field("quad:-1")
x, Q = 10**5, 10**4

# M sets the width of the admissible window: Q may sit as low as x/log^M x.
report = variance(field, x, Q, M=2)
print(f"field {report.field.label()}, x = {report.x}, Q = {report.Q}")
print(f"V = {report.total:.3f}")
print(f"V / (x Q log x) = {report.ratio_bdh:.4f}   (envelope constant, order 1)")
print(f"range condition x/log^2 x <= Q <= x: {report.range_condition_satisfied}")
print(f"mass outside admissible classes: {report.outside_mass}")

# Which moduli carry the variance?  Large q dominate: small q have few
# classes and benefit from massive cancellation.
# per_q[q - 1] is the contribution of q and admissible[q - 1] its class count.
leaders = np.argsort(-report.per_q, kind="stable")[:5]
print("\ntop contributing moduli")
for i in leaders.tolist():
    classes, contribution = int(report.admissible[i]), float(report.per_q[i])
    print(f"  q = {i + 1:<4} classes = {classes:<4} contribution = {contribution:.1f}")

# Dyadic profile: contributions grouped by octave Q/2^(k+1) < q <= Q/2^k,
# with everything below (log x)^(M+1) pooled into one small-q block.
print("\ndyadic profile (fraction of V per block)")
for block in report.dyadic:
    share = block.contribution / report.total
    print(f"  ({block.u_lo:9.2f}, {block.u_hi:9.2f}]  {share:6.1%}")

# Conditional-bound comparison: x Q log x is stronger than the
# x Q log^4 x envelope by exactly (log x)^3.
print(f"\nclassical envelope ratio: {report.ratio_bdh:.4f}")
print(f"heuristic envelope ratio: {report.ratio_grh:.6f}")
print(f"their quotient equals (log x)^3 = {math.log(x) ** 3:.1f}")

# The per-q computation is backed by an exact character identity: sum of
# squared deviations equals the averaged squared character sums.
gap = max(orthogonality_check(field, x, q).gap for q in range(1, 31))
print(f"\nmax orthogonality gap over q <= 30: {gap:.2e}")
