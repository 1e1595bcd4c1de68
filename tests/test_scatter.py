import pytest

from qca.checks import (
    adds_classical_a2_wall,
    adds_quantum_a23_wall,
    classical_a2_diagram,
    grid,
    new_walls,
)
from qca.fixtures import a23, a2_scattering
from qca.scalars import ONE, qpow, vpow
from qca.scatter import appendix_b_closed_form, complete_to_order, initial_diagram
from qca.seeds import make_fixed_data
from qca.words import Series, degree


def crossing(dg, wall, m, order):
    """Crossing ``wall`` with sign +1 applied to A^m, exact to ``order``
    above the degree of m."""
    cutoff = degree(dg.dvec, m) + order * dg.dscale
    return dg.cross(wall, Series(dg.torus, dg.dvec, cutoff, {m: ONE}), 1, cutoff)


def test_initial_a2_walls():
    dg = initial_diagram(a2_scattering(), side="A", quantum=False)
    funcs = {}
    for w in dg.walls:
        assert w.incoming and w.full_line and w.kind == "classical"
        funcs[w.direction] = w.function
    # 1 + A2 on the vertical line, 1 + A1^{-1} on the horizontal line
    assert set(funcs) == {(0, 1), (-1, 0)}
    assert funcs[(0, 1)] == {1: ONE}
    assert funcs[(-1, 0)] == {1: ONE}


def test_initial_diagram_requires_injectivity():
    fd = make_fixed_data([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        initial_diagram(fd)


def test_classical_crossing_exponent_one():
    dg = initial_diagram(a2_scattering(), side="A", quantum=False, order=3)
    wall_a2 = next(w for w in dg.walls if w.direction == (0, 1))
    got = crossing(dg, wall_a2, (1, 0), 3)
    # (1 + A2) A^{f1}
    assert got.coefficient((1, 0)) == ONE
    assert got.coefficient((1, 1)) == ONE
    # orthogonal monomial untouched
    got = crossing(dg, wall_a2, (0, 1), 3)
    assert got.terms == {(0, 1): ONE}


def test_a2_loop_discrepancy_at_degree_two():
    # the initial diagram is not consistent: the loop on A^{f1} picks up the
    # degree-2 term A2 = A^{f2-f1} A^{f1} (the driver of completion); the
    # degree-3 tail is -A1^{-1} A2.  Oracle: hand composition of the two
    # crossing operators.
    dg = initial_diagram(a2_scattering(), side="A", quantum=False, order=2)
    got = dg.path_ordered_product((1, 0), 2)
    assert got.terms != {(1, 0): ONE}
    assert got.coefficient((1, 0)) == ONE
    assert got.coefficient((0, 1)) == ONE
    got3 = dg.path_ordered_product((1, 0), 3)
    assert got3.coefficient((-1, 1)) == -ONE


def test_a2_completion_fig1():
    # the wall and ccw consistency are acceptance criterion 3
    for order in (2, 3, 4, 5, 6):
        dg = classical_a2_diagram(order)
        assert adds_classical_a2_wall(dg), order
        assert not new_walls(dg)[0].full_line
        assert dg.is_consistent(grid(2), order)


def test_a23_quantum_initial_consistent_order_one():
    dg = initial_diagram(a23(), side="A", quantum=True, order=1)
    assert dg.is_consistent(grid(2), 1)


def test_appendix_b_values():
    # specialized closed-form values
    assert appendix_b_closed_form((1, 0)) == vpow(-1) + vpow(3) + vpow(7)
    assert appendix_b_closed_form((0, 0)).is_zero()
    assert appendix_b_closed_form((1, 1)) == \
        vpow(-1) + vpow(3) + vpow(5) + vpow(7) + vpow(11)


def test_a23_completion_order2():
    dg = complete_to_order(initial_diagram(a23(), quantum=True, order=2), 2)
    assert adds_quantum_a23_wall(dg, 3)
    w = new_walls(dg)[0]
    assert w.kind == "log"
    assert list(w.log_coeffs) == [1]
    assert dg.is_consistent(grid(2), 2)


def test_quantum_dilog_wall_action_eq_g2():
    # Ad^{-1} of Psi_{v^3}(A2^{-3}) on A^{f1} = (1 + v^3 A2^{-3}) A^{f1}
    dg = initial_diagram(a23(), side="A", quantum=True, order=2)
    wall = next(w for w in dg.walls if w.normal == (1, 0))
    got = crossing(dg, wall, (1, 0), 2)
    lead = got.coefficient((1, 0))
    bend = got.coefficient((1, -3))
    assert lead == ONE
    # (1 + v^3 A2^{-3}) A^{f1} = A^{f1} + v^3 q^{w((0,-3),(1,0))} A^{(1,-3)}
    expect = vpow(3) * qpow(dg.torus.omega((0, -3), (1, 0)))
    assert bend == expect


def test_x_side_quantum_a2():
    # the X-side quantum diagram of the A2 fixture completes at order 2 with
    # a single outgoing wall
    fd = make_fixed_data([[0, 1], [-1, 0]])
    dg = complete_to_order(initial_diagram(fd, side="X", quantum=True, order=2), 2)
    new = [w for w in dg.walls if not w.incoming]
    assert len(new) == 1
    assert dg.is_consistent(grid(2), 2)


def test_classical_x_side_rejected():
    with pytest.raises(ValueError):
        initial_diagram(a2_scattering(), side="X", quantum=False)


def test_json_export():
    dg = complete_to_order(initial_diagram(a2_scattering(), quantum=False, order=2), 2)
    data = dg.to_json()
    assert len(data["walls"]) == 3
    kinds = {w["kind"] for w in data["walls"]}
    assert kinds == {"classical"}
