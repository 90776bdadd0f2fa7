import math
import random

import pytest

from omega.arith import _factor
from omega.groups import group_order, parse_group_spec
from omega.spectra import (
    PrimeGraph,
    SpectrumDescriptor,
    canonicalize,
    contains,
    d43_mixed_spectrum,
    e6_semisimple_spectrum,
    e7_semisimple_spectrum,
    pg_nonadjacency_witnesses,
    prime_graph,
    symplectic_torus_spectrum,
)


def divides_order(m, factored):
    return all(factored.factors.get(p, 0) >= e for p, e in _factor(m).items())


def test_canonicalize_examples():
    assert canonicalize([31, 93]).generators == (93,)
    assert canonicalize([8, 10, 4]).generators == (8, 10)
    assert canonicalize([73, 91, 93, 31, 51, 63, 21, 45, 15]).generators == (
        45, 51, 63, 73, 91, 93)
    assert canonicalize([1]).generators == (1,)
    assert canonicalize([6, 6, 3]).generators == (6,)


def test_canonicalize_rejects():
    with pytest.raises(ValueError):
        canonicalize([])
    with pytest.raises(ValueError):
        canonicalize([3, 0])
    with pytest.raises(ValueError):
        canonicalize([3, -1])


def test_canonicalize_idempotent_and_order_free():
    rng = random.Random(5)
    for _ in range(300):
        vals = [rng.randrange(1, 4000) for _ in range(rng.randrange(1, 25))]
        a = canonicalize(vals)
        assert canonicalize(list(a.generators)).generators == a.generators
        rng.shuffle(vals)
        assert canonicalize(vals).generators == a.generators


def test_descriptor_invariants():
    with pytest.raises(ValueError):
        SpectrumDescriptor((3, 6))
    with pytest.raises(ValueError):
        SpectrumDescriptor((10, 8))


def test_contains():
    d = canonicalize([93])
    assert contains(d, 31) and contains(d, 93) and contains(d, 1)
    assert not contains(d, 6)
    assert 31 in d and 6 not in d
    with pytest.raises(ValueError):
        contains(d, 0)


def test_e6_frozen():
    assert e6_semisimple_spectrum(2, 1).generators == (45, 51, 63, 73, 91, 93)
    assert e6_semisimple_spectrum(2, -1).generators == (9, 13, 15, 17, 19, 21, 33, 35)
    assert e6_semisimple_spectrum(2, "+").generators == e6_semisimple_spectrum(2, 1).generators
    with pytest.raises(ValueError):
        e6_semisimple_spectrum(2, 0)


def test_e6_generators_divide_group_order():
    for q, eps, fam in ((2, 1, "E6"), (2, -1, "2E6"), (3, 1, "E6"), (4, -1, "2E6"), (5, 1, "E6")):
        desc = e6_semisimple_spectrum(q, eps)
        order = group_order(parse_group_spec(f"{fam}({q})s"))
        d = math.gcd(3, q - eps)
        for g in desc.generators:
            assert divides_order(g * d, order) or divides_order(g, order), (q, eps, g)


def test_e7_frozen_membership():
    desc = e7_semisimple_spectrum(2)
    assert contains(desc, 127)
    assert contains(desc, 73)
    assert contains(desc, 171)
    assert not contains(desc, 73 * 3)
    assert not contains(desc, 73 * 19)


def test_e7_generators_divide_group_order():
    for q in (2, 3, 4, 5):
        desc = e7_semisimple_spectrum(q)
        order = group_order(parse_group_spec(f"E7({q})u"))
        for g in desc.generators:
            assert divides_order(g, order), (q, g)


def test_d43_frozen():
    assert d43_mixed_spectrum(4).generators == (52, 84, 126, 130)
    assert not contains(d43_mixed_spectrum(4), 30)
    assert not contains(d43_mixed_spectrum(4), 20)
    with pytest.raises(ValueError):
        d43_mixed_spectrum(3)


def test_torus_frozen():
    assert symplectic_torus_spectrum(2, 2).generators == (3, 5)
    assert symplectic_torus_spectrum(2, 3).generators == (8, 10)
    assert symplectic_torus_spectrum(2, 4).generators == (15, 17)
    assert symplectic_torus_spectrum(3, 2).generators == (7, 9, 15)
    with pytest.raises(ValueError):
        symplectic_torus_spectrum(1, 3)


def test_torus_values_divide_group_order():
    for n, q in ((2, 3), (2, 5), (3, 2), (3, 3), (4, 2)):
        order = group_order(parse_group_spec(f"C({n},{q})u"))
        for g in symplectic_torus_spectrum(n, q).generators:
            assert divides_order(g, order), (n, q, g)


def test_prime_graph():
    g = prime_graph(canonicalize([30]))
    assert g.vertices == (2, 3, 5)
    assert set(g.edges) == {(2, 3), (2, 5), (3, 5)}
    a5 = prime_graph(canonicalize([1, 2, 3, 5]))
    assert a5.vertices == (2, 3, 5)
    assert a5.edges == ()
    assert not a5.adjacent(2, 3)
    assert g.adjacent(5, 2)


def test_prime_graph_checks_hold_without_asserts():
    with pytest.raises(ValueError, match="not sorted"):
        PrimeGraph((3, 2), ())
    for edge in ((3, 2), (2, 7)):
        with pytest.raises(ValueError, match="not an ordered pair"):
            PrimeGraph((2, 3, 5), (edge,))


def test_pg_witnesses():
    triangle = prime_graph(canonicalize([30]))
    assert pg_nonadjacency_witnesses(triangle) == {2: None, 3: None, 5: None}
    a5 = prime_graph(canonicalize([1, 2, 3, 5]))
    w = pg_nonadjacency_witnesses(a5)
    assert w == {2: 3, 3: 2, 5: 2}


def test_e7_nonadjacency_at_2():
    # 73 generates alone, so it is an isolated vertex of the graph.
    desc = e7_semisimple_spectrum(2)
    graph = prime_graph(desc)
    assert all(not graph.adjacent(73, t) for t in graph.vertices if t != 73)
    # 19 = r_18(2) is adjacent to 3 through the entry 171, so 19 cannot
    # witness for 3; 73 = r_9(2) does.
    assert graph.adjacent(19, 3)
    assert not graph.adjacent(73, 3)
