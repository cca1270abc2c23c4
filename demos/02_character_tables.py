"""Exact character tables for the three supported group families.

The (C_2)^k table is the Walsh-Hadamard matrix, S_n columns come from
power-sum sweeps (multiplying by p_r adds rim hooks) and are plain integers,
and C_n entries are exact roots of unity. Orthogonality holds as an equality of rationals, not to a
tolerance.
"""

from fractions import Fraction

from groupmds import character_table, inner_product, dimension
from groupmds.characters import character_class_function, irreducible_labels
from groupmds.groups import cyclic, elementary_abelian_2, symmetric

print("Character table of (C_2)^2 -- rows are subsets of {1, 2}:")
print(character_table(elementary_abelian_2(2)).to_text())

print("Character table of S_4 -- rows are partitions, columns cycle types:")
print(character_table(symmetric(4)).to_text())

print("Character table of C_4 -- entries are exact powers of i:")
print(character_table(cyclic(4)).to_text())

print("Row orthogonality on S_5, checked with exact rationals:")
s5 = symmetric(5)
labels = irreducible_labels(s5)
rows = {lab: character_class_function(s5, lab) for lab in labels}
worst_off = Fraction(0)
for i, li in enumerate(labels):
    for lj in labels[i:]:
        value = inner_product(rows[li], rows[lj])
        expected = 1 if li == lj else 0
        assert value == expected, (li, lj, value)
print(f"  all {len(labels) * (len(labels) + 1) // 2} pairs equal their Kronecker delta")

print("Dimension census: sum of dim^2 over irreducibles equals |G|:")
for spec in (symmetric(6), elementary_abelian_2(5), cyclic(24)):
    total = sum(dimension(spec, lab) ** 2 for lab in irreducible_labels(spec))
    print(f"  {spec.text}: {total} == {spec.order}")
