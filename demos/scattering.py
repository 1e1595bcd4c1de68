"""Complete two rank-2 scattering diagrams order by order:

  * the classical A2 diagram, whose two incoming lines force a single
    outgoing wall with function 1 + A1^{-1} A2 on the ray through (1,-1);
  * the quantum A(2,3) diagram, whose order-2 wall carries a log
    coefficient with a *negative* term: quantum positivity fails.

Run: python3 demos/scattering.py
"""

from qca.checks import loop_coefficient
from qca.fixtures import a23, a2_scattering
from qca.render import diagram_svg
from qca.scatter import appendix_b_closed_form, complete_to_order, initial_diagram

print("=== classical A2 ===")
dg = initial_diagram(a2_scattering(), quantum=False, order=4)
print("initial walls:")
for w in dg.walls:
    print(f"  line through {w.ray}, function 1 + A^{list(w.direction)}")
done = complete_to_order(dg, 4)
for w in done.walls:
    if not w.incoming:
        terms = {j: c.render() for j, c in w.function.items()}
        print(f"completion adds: ray {w.ray}, function terms {terms} "
              f"in A^{list(w.direction)}")
grid = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
print("loop product is the identity to order 4:", done.is_consistent(grid, 4))

print()
print("=== quantum A(2,3) ===")
qdg = initial_diagram(a23(), quantum=True, order=2)
for w in qdg.walls:
    print(f"  line through {w.ray}: dilogarithm wall, base q^{w.dilog[0]}, "
          f"argument A^{list(w.direction)}")

print("full-loop automorphism, degree-2 coefficient (closed form check):")
for u in [(1, 0), (0, 1), (1, 1), (1, -1)]:
    delta = loop_coefficient(qdg, u)
    closed = appendix_b_closed_form(u)
    print(f"  u = {u}: engine {(-delta).render_v()}   closed form "
          f"{closed.render_v()}   match: {-delta == closed}")

qdone = complete_to_order(qdg, 2)
for w in qdone.walls:
    if not w.incoming:
        print(f"completion adds: ray {w.ray}, log coefficients "
              f"{{j: c}} = {{{', '.join(f'{j}: {c.render_v()}' for j, c in w.log_coeffs.items())}}}")
print("consistent to order 2:", qdone.is_consistent(grid, 2))

print()
print("quantum positivity failure at u = (1,-1):",
      appendix_b_closed_form((1, -1)).render_v())

with open("a2_diagram.svg", "w", encoding="utf-8") as fh:
    fh.write(diagram_svg(done))
with open("a23_diagram.svg", "w", encoding="utf-8") as fh:
    fh.write(diagram_svg(qdone))
print("wrote a2_diagram.svg and a23_diagram.svg")
