"""Walk the A2 pentagon: five mutations bring the cluster back with its two
variables swapped, classically and quantum, with and without principal
coefficients.

Run: python3 demos/mutation_tables.py
"""

from qca.checks import A2_SEQ, q1_specializes
from qca.fixtures import a2_tables
from qca.mutation import (
    apply_mutation_sequence,
    classical_x_table,
    quantum_x_table,
    x_torus,
)
from qca.words import FactoredWord, words_equal

fd = a2_tables()

print("=== classical X-mutation with principal coefficients ===")
for row in apply_mutation_sequence(fd, A2_SEQ, "x-family"):
    mu = f"mu_{row['mutation']}" if row["mutation"] else "start"
    print(f"step {row['step']:>2} ({mu}):  eps = {row['epsilon']}  "
          f"C = {row['cvectors']}")
    for i, v in enumerate(row["variables"]):
        print(f"      X{i + 1} = {v}")

print()
print("=== quantum X-mutation with coefficients ===")
rows = quantum_x_table(fd, A2_SEQ, with_coefficients=True)
for step, (seed, words) in enumerate(rows):
    print(f"step {step}:")
    for i, w in enumerate(words):
        print(f"      X{i + 1} = {w.render()}")

print()
print("the pentagon ends in the swap (X2, X1):")
alg = x_torus(fd)
final = rows[5][1]
print("  X1 == X2 ?", words_equal(final[0], FactoredWord.monomial(alg, (0, 1)), 12))
print("  X2 == X1 ?", words_equal(final[1], FactoredWord.monomial(alg, (1, 0)), 12))

print()
print("q = 1 turns every quantum row into the classical row:")
crows = classical_x_table(fd, A2_SEQ, with_coefficients=True)
print("  all rows agree:", q1_specializes(rows, crows))
