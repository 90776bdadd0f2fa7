"""The package's value records: positional and keyword construction with
their defaults, their validation, equality and hashing over the compared
fields only, repr, and refusal of assignment where a record is frozen."""

import numpy as np
import pytest

from omega.arith import Factored
from omega.claims import Claim, ClaimResult
from omega.groups import GroupSpec
from omega.oracle import (ElementTable, FrobeniusVerdict, FrobeniusWitness, MatrixGroup,
                          ModuleAction, build_field)
from omega.oracle.matgroup import GroupRecord
from omega.spectra import PrimeGraph, SpectrumDescriptor


def frozen(record, name):
    """Assigning to or deleting a field raises AttributeError and changes nothing."""
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    return getattr(record, name) is before


def same(a, b, fields):
    """a == b, and both hash as the tuple of the compared fields."""
    return a == b and not a != b and hash(a) == hash(b) == hash(fields)


def test_group_spec():
    a, b = GroupSpec("A", 1, 4), GroupSpec(q=4, rank=1, family="A", version="simple")
    assert a.version == "simple" and (a.p, a.k) == (2, 2)
    # p and k follow from q, and stay out of equality and hashing
    assert same(a, b, ("A", 1, 4, "simple")) and {a: 1}[b] == 1
    assert a != GroupSpec("A", 1, 4, "universal") and a != ("A", 1, 4, "simple")
    assert repr(a) == "GroupSpec(family='A', rank=1, q=4, version='simple', p=2, k=2)"
    assert frozen(a, "q") and frozen(a, "p")
    for args in (("X", 1, 4), ("A", 1, 4, "big"), ("E6", 5, 2), ("B", 1, 3), ("A", 1, 6)):
        with pytest.raises(ValueError):
            GroupSpec(*args)
    with pytest.raises(TypeError):
        GroupSpec("A", 1)


def test_factored():
    a, b = Factored(12, {2: 2, 3: 1}), Factored(n=12, factors={3: 1, 2: 2})
    # the factors dict, unhashable, stays out of hashing
    assert same(a, b, (12,)) and a != Factored(4, {2: 2})
    assert repr(a) == "Factored(n=12, factors={2: 2, 3: 1})"
    assert frozen(a, "n") and frozen(a, "factors")
    with pytest.raises(ValueError, match="positive"):
        Factored(1, {2: 0})
    with pytest.raises(ValueError, match="multiply back"):
        Factored(12, {2: 1, 3: 1})


def test_spectrum_descriptor_and_prime_graph():
    spec = GroupSpec("C", 2, 3, "universal")
    d = SpectrumDescriptor((4, 5))
    assert (d.scope, d.context) == ("full", None)
    e = SpectrumDescriptor(context=spec, scope="p_prime_only", generators=(4, 5))
    assert same(e, SpectrumDescriptor((4, 5), "p_prime_only", spec),
                ((4, 5), "p_prime_only", spec))
    assert d != e and same(d, SpectrumDescriptor((4, 5), "full"), ((4, 5), "full", None))
    assert repr(d) == "SpectrumDescriptor(generators=(4, 5), scope='full', context=None)"
    assert frozen(d, "generators")
    for args in (((5, 4),), ((0, 3),), ((2, 4),), ((4,), "some"), ((3, 4), "p_prime_only", spec)):
        with pytest.raises(ValueError):
            SpectrumDescriptor(*args)
    g = PrimeGraph((2, 3, 5), ((2, 3),))
    assert same(g, PrimeGraph(edges=((2, 3),), vertices=(2, 3, 5)), ((2, 3, 5), ((2, 3),)))
    assert g != PrimeGraph((2, 3, 5), ())
    assert repr(g) == "PrimeGraph(vertices=(2, 3, 5), edges=((2, 3),))"
    assert frozen(g, "edges")
    for args in (((3, 2), ()), ((2, 3), ((3, 2),)), ((2, 3), ((2, 7),))):
        with pytest.raises(ValueError):
            PrimeGraph(*args)


def test_claim_and_result():
    c = Claim("X1", "a statement", "skipped", skip_reason="out of reach")
    assert c.grid == () and c.skip_reason == "out of reach"
    assert same(c, Claim("X1", "a statement", "skipped", (), "out of reach"),
                ("X1", "a statement", "skipped", (), "out of reach"))
    assert Claim("X1", "s", "arithmetic", grid=({"q": 2},)).skip_reason == ""
    assert frozen(c, "strategy")
    for kwargs in ({"strategy": "guess", "grid": ({},)}, {"strategy": "skipped"},
                   {"strategy": "oracle"}):
        with pytest.raises(ValueError):
            Claim("X1", "s", **kwargs)
    r = ClaimResult("X1", {"q": 2}, "pass", {"n": 3})
    assert r == ClaimResult(claim_id="X1", params={"q": 2}, verdict="pass", evidence={"n": 3})
    assert r != ClaimResult("X1", {"q": 3}, "pass", {"n": 3})
    assert repr(r) == "ClaimResult(claim_id='X1', params={'q': 2}, verdict='pass', evidence={'n': 3})"
    assert frozen(r, "verdict")
    with pytest.raises(TypeError):
        hash(r)  # its params and evidence are dicts
    with pytest.raises(ValueError, match="unknown verdict"):
        ClaimResult("X1", {}, "maybe", {})


def test_matrix_group_and_module_action():
    f = build_field(3)
    t = [[1, 1], [0, 1]]
    g = MatrixGroup(f, 2, [t])
    h = MatrixGroup(field=f, dim=2, generators=np.array([t], dtype=np.uint8), name=None)
    # the generators, a uint16 code stack, compare and hash by their bytes;
    # the inverses, an array, stay out of equality, hashing and repr
    assert g.generators.dtype == np.uint16 and g.generators.tolist() == [t]
    assert g.name is None and g.inverses.tolist() == [[[1, 2], [0, 1]]]
    assert same(g, h, (f, 2, np.array([t], dtype=np.uint16).tobytes(), None))
    assert g != MatrixGroup(f, 2, [t], GroupSpec("A", 1, 3, "universal"))
    assert g != MatrixGroup(f, 2, [t, t]) and g != MatrixGroup(build_field(5), 2, [t])
    assert repr(g) == ("MatrixGroup(field=GF(3), dim=2, generators=array([[[1, 1],\n"
                       "        [0, 1]]], dtype=uint16), name=None)")
    assert frozen(g, "generators") and frozen(g, "inverses")
    with pytest.raises(ValueError, match="not invertible"):
        MatrixGroup(f, 2, [[[1, 1], [1, 1]]])
    # a module action is its image group: the module's dimension and field
    # are the group's
    a = ModuleAction(g)
    assert (a.dim_V, a.field) == (2, f)
    assert same(a, ModuleAction(image_group=g), (g,))
    assert a != ModuleAction(MatrixGroup(f, 2, [t, t]))
    assert repr(a) == f"ModuleAction(image_group={g!r})"
    assert frozen(a, "image_group")
    with pytest.raises(TypeError):
        ModuleAction(g, 2)


def test_element_table_and_group_record():
    t = ElementTable(2, {1: 1, 2: 1}, (1, 2))
    assert t.payload is None
    # the payload stays out of equality and repr; a table is not hashable
    assert t == ElementTable(size=2, order_histogram={1: 1, 2: 1}, spectrum=(1, 2), payload="p")
    assert t != ElementTable(4, {1: 1, 2: 3}, (1, 2))
    assert repr(t) == "ElementTable(size=2, order_histogram={1: 1, 2: 1}, spectrum=(1, 2))"
    with pytest.raises(TypeError):
        hash(t)
    with pytest.raises(ValueError, match="sum to the size"):
        ElementTable(3, {1: 1, 2: 1}, (1, 2))
    f, keys = build_field(2), np.arange(2, dtype=np.uint64)
    rec = GroupRecord(f, 1, keys, [], np.zeros((0, 1, 1)))
    assert (rec.classes, rec.semidirect) == (None, None)
    # a record is equal only to itself
    assert rec == rec and rec != GroupRecord(f, 1, keys, [], rec.inverses)
    assert GroupRecord(field=f, dim=1, keys=keys, generators=[], inverses=None).keys is keys
    # classes, orders and V x| G are filled in on first use, never passed in
    with pytest.raises(TypeError):
        GroupRecord(f, 1, keys, [], None, orders=keys)


def test_frobenius_records():
    w = FrobeniusWitness("gl-affine", (2, 1), (), (), 2, 1)
    assert same(w, FrobeniusWitness(kind="gl-affine", params=(2, 1), kernel_gens=(),
                                    complement_gens=(), kernel_order=2, complement_order=1),
                ("gl-affine", (2, 1), (), (), 2, 1))
    assert w != FrobeniusWitness("gl-affine", (2, 1), (), (), 2, 2)
    assert frozen(w, "kind")
    v = FrobeniusVerdict(True, 4, 3)
    assert (v.reason, v.counterexample) == ("", None)
    assert same(v, FrobeniusVerdict(ok=True, kernel_order=4, complement_order=3, reason=""),
                (True, 4, 3, "", None))
    assert v != FrobeniusVerdict(False, 4, 3, "why")
    assert repr(v) == ("FrobeniusVerdict(ok=True, kernel_order=4, complement_order=3, "
                       "reason='', counterexample=None)")
    assert frozen(v, "ok")
