"""
Dirichlet characters from the unit group up
===========================================

The unit group mod q is decomposed into cyclic pieces via CRT; a
character is then just one integer exponent per piece.  From that
representation the package derives value tables, the conductor (the
smallest modulus the character really lives on), and the primitive
character it is induced by.
"""

from normvar import character, enumerate_characters, primitive_part, unit_group

group = unit_group(12)
print("unit group mod 12")
print("generators:", group.generators)
print("orders:    ", group.orders)

# phi(12) = 4 and both generators have order 2, so there are 4 characters.
print("\nall characters mod 12 (values on 1, 5, 7, 11)")
for chi in enumerate_characters(12):
    vals = [chi.value(a) for a in (1, 5, 7, 11)]
    pretty = " ".join(f"{v.real:+.0f}" for v in vals)
    print(f"exponents {chi.exponents}: {pretty}   conductor {chi.conductor}")

# A character mod 12 with conductor 3 is "imprimitive": it is the lift of a
# genuine character mod 3.  primitive_part recovers that character.
chi = character(12, (0, 1))
prim = primitive_part(chi)
print(f"\nexponents {chi.exponents} mod 12 has conductor {chi.conductor}; "
      f"its primitive part lives mod {prim.q}")
for a in (1, 2):
    print(f"  primitive value at {a}: {prim.value(a).real:+.0f}")

# Values are exact roots of unity: rotation() exposes the phase as a
# fraction of a full turn, with None on non-units.
chi7 = character(7, (1,))
print("\ncharacter mod 7, exponent 1: phase as fraction of a turn")
for a in range(1, 8):
    print(f"  a={a}: {chi7.rotation(a)}")

# (Z/32)^* is not cyclic: it is <-1> x <5>, factors of orders 2 and 8.  A
# character of order r > 1 on <5> needs 2^(2 + v_2(r)) in its conductor,
# on <-1> it needs 4, and on an odd p^a factor p^(1 + v_p(r)); the
# conductor is the lcm of what the factors need.
group32 = unit_group(32)
print("\nunit group mod 32")
for gen, order in zip(group32.generators, group32.orders):
    print(f"  factor generated by {gen}, order {order}")
print("  conductors:", sorted({chi.conductor for chi in enumerate_characters(32)}))
