"""Two consistency stories in one script:

  * semi-classical limits: (ab - ba)/(q - 1) at q = 1 agrees with the
    Poisson bivector bracket, and classical family mutation is a Poisson
    map, chart by chart;
  * the p* dictionary: the induced map from the quantum X-torus with
    coefficients to the quantum A-torus intertwines the two mutation
    formulas after identifying q_FG^{1/d} = q_BZ^{-1/2}.

Run: python3 demos/poisson_and_pstar.py
"""

from qca.commutative import CRational
from qca.duality import PStarHom
from qca.fixtures import a2_tables, a23, rank3_frozen
from qca.mutation import x_torus
from qca.poisson import check_poisson_map, element_q1, poisson_bracket, semiclassical_bracket
from qca.qtorus import QTorusElement
from qca.seeds import Seed

print("=== semi-classical limit ===")
fd = a2_tables()
alg = x_torus(fd)
s = Seed(fd)
x1 = QTorusElement.generator(alg, 0)
x2 = QTorusElement.generator(alg, 1)
br = semiclassical_bracket(x1, x2)
print("{X1, X2} =", br.render(fd.labels))
bivector = poisson_bracket(CRational(element_q1(x1)), CRational(element_q1(x2)), s)
print("bivector route agrees:", CRational(br) == bivector)

print()
print("mutation is a Poisson map (A2, both directions):")
for k in fd.unfrozen:
    rep = check_poisson_map(s, k)
    print(f"  mu_{k + 1}:", "ok" if rep["ok"] else "FAIL")

print()
print("=== the p* dictionary on A(2,3) ===")
fd = a23()
hom = PStarHom(fd)
print("Lambda =", [list(r) for r in hom.Lambda])
print("p* rows:", [list(r) for r in hom.pmap.rows])
for k, i, ok in hom.intertwining(8):
    print(f"  mu_{k + 1}, generator {i + 1}: intertwines ->", ok)

print()
print("same check on a rank-3 seed with a frozen direction:")
results = PStarHom(rank3_frozen()).intertwining(8)
print("  all generators intertwine:", all(ok for _, _, ok in results))
