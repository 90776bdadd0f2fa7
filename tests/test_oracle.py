import random

import numpy as np
import pytest

from omega.arith import _factor, divisors, is_prime
from omega.groups import parse_group_spec
from omega.oracle import (
    CapExceeded,
    ElementTable,
    Field,
    Matrix,
    MatrixGroup,
    ModuleAction,
    build_field,
    classical_generators,
    enumerate_group,
    field,
    semidirect_spectrum,
    spectrum_table,
)
from omega.oracle.kernel import _VoidCodec, _make_codec
from omega.oracle.matgroup import _CAP_CHUNK, _classes, _table


def test_field_modulus_is_smallest():
    # integer code of the modulus, base-p digits with the constant first
    assert build_field(2, 2).modulus == (1, 1, 1)      # x^2+x+1 = code 7
    assert build_field(2, 3).modulus == (1, 1, 0, 1)   # x^3+x+1 = code 11
    assert build_field(3, 2).modulus == (1, 0, 1)      # x^2+1 = code 10
    assert build_field(5, 2).modulus == (2, 0, 1)      # x^2+2 = code 27
    assert build_field(7, 1).modulus == (0, 1)


# Integer code of the modulus of GF(p^k) for k = 2, 3, ... while p^k <= 2^16:
# the first monic irreducible among the codes p^k .. 2p^k - 1, recorded with
# Rabin's irreducibility test.
_MODULUS_CODES = {
    2: (7, 11, 19, 37, 67, 131, 283, 515, 1033, 2053, 4105, 8219, 16417, 32771, 65579),
    3: (10, 34, 86, 250, 734, 2198, 6572, 19747, 59068),
    5: (27, 131, 627, 3146, 15632),
    7: (50, 345, 2409, 16817),
    11: (122, 1346, 14654), 13: (171, 2199, 28563),
    17: (292, 4933), 19: (362, 6861), 23: (530, 12193), 29: (843, 24422),
    31: (962, 29794), 37: (1371, 50655),
    41: (1684,), 43: (1850,), 47: (2210,), 53: (2811,), 59: (3482,), 61: (3723,),
    67: (4490,), 71: (5042,), 73: (5334,), 79: (6242,), 83: (6890,), 89: (7924,),
    97: (9414,), 101: (10203,), 103: (10610,), 107: (11450,), 109: (11883,),
    113: (12772,), 127: (16130,), 131: (17162,), 137: (18772,), 139: (19322,),
    149: (22203,), 151: (22802,), 157: (24651,), 163: (26570,), 167: (27890,),
    173: (29931,), 179: (32042,), 181: (32763,), 191: (36482,), 193: (37254,),
    197: (38811,), 199: (39602,), 211: (44522,), 223: (49730,), 227: (51530,),
    229: (52443,), 233: (54292,), 239: (57122,), 241: (58088,), 251: (63002,),
}


def test_every_field_modulus_is_pinned():
    # build_field's candidate search, without the Field tables, for all 93
    # fields GF(p^k) with k >= 2 and p^k <= 2^16
    fields = [(p, k) for p in range(2, 257) if is_prime(p) for k in range(2, 17)
              if p**k <= 1 << 16]
    assert len(fields) == 93
    assert fields == [(p, k) for p, codes in _MODULUS_CODES.items()
                      for k in range(2, len(codes) + 2)]
    for p, k in fields:
        got = next(m for m in range(p**k, 2 * p**k)
                   if field._irreducible(field._code_to_poly(m, p), p))
        assert got == _MODULUS_CODES[p][k - 2], (p, k)


def test_irreducible_agrees_with_the_field_check():
    # every monic candidate of degree 2..k with p^k <= 64: trial division
    # holds exactly when Field's exp table is a permutation
    seen = 0
    for p, top in ((2, 6), (3, 3), (5, 2), (7, 2)):
        for k in range(2, top + 1):
            for m in range(p**k, 2 * p**k):
                f = field._code_to_poly(m, p)
                try:
                    Field(p, k, f)
                    builds = True
                except (ValueError, RuntimeError):
                    builds = False
                assert field._irreducible(f, p) == builds, (p, f)
                seen += 1
    assert seen == 234


def test_field_axioms_sampled():
    rng = np.random.default_rng(11)
    for f in (build_field(2, 2), build_field(3, 2), build_field(2, 3),
              build_field(7, 2), build_field(2, 8)):
        a = rng.integers(0, f.q, 300)
        b = rng.integers(0, f.q, 300)
        c = rng.integers(0, f.q, 300)
        assert (f.mul_many(a, f.add_many(b, c))
                == f.add_many(f.mul_many(a, b), f.mul_many(a, c))).all()
        assert (f.add_many(a, b) == f.add_many(b, a)).all()
        assert (f.mul_many(f.mul_many(a, b), c)
                == f.mul_many(a, f.mul_many(b, c))).all()
        for x in map(int, a[:50]):
            assert f.add(x, f.neg(x)) == 0
            if x:
                assert f.mul(x, f.inv(x)) == 1
            # frobenius is a field automorphism
            y = int(b[0])
            assert f.frob(f.add(x, y), 1) == f.add(f.frob(x, 1), f.frob(y, 1))
            assert f.frob(f.mul(x, y), 1) == f.mul(f.frob(x, 1), f.frob(y, 1))


def test_field_generator_cycles():
    f = build_field(3, 2)
    seen = set()
    x = 1
    for _ in range(f.q - 1):
        x = f.mul(x, f.generator)
        seen.add(x)
    assert len(seen) == f.q - 1 and x == 1


def test_field_rejects_bad_input():
    with pytest.raises(ValueError):
        build_field(4)
    with pytest.raises(ValueError):
        build_field(6, 2)
    with pytest.raises(ValueError):
        build_field(2, 17)  # past the 2^16 cap
    with pytest.raises(ValueError):
        build_field(257, 2)


def test_field_checks_hold_without_asserts():
    with pytest.raises(ValueError, match="not monic of degree 2"):
        Field(3, 2, [1, 1])
    with pytest.raises(ValueError, match="not monic of degree 2"):
        Field(3, 2, [1, 0, 2])
    with pytest.raises(ValueError, match="not irreducible"):
        Field(5, 2, [1, 0, 1])  # x^2 + 1 = (x - 2)(x - 3) over GF(5)
    f = build_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    for e in (0, -1):
        with pytest.raises(ZeroDivisionError):
            f.pow(0, e)
    assert f.pow(0, 3) == 0


def digit_sum(f, a, b):
    """a + b in GF(p^k), one base-p digit at a time."""
    out, place = 0, 1
    while a or b:
        out += (a + b) % f.p * place
        a, b, place = a // f.p, b // f.p, place * f.p
    return out


@pytest.mark.parametrize("p, k", [(3, 6), (251, 1), (2, 11), (2, 12), (3, 7), (65521, 1)])
def test_add_many_is_the_digit_wise_sum(p, k, monkeypatch):
    # up to 2^11 = 2048 elements a field of odd p keeps an addition table
    f = build_field(p, k)
    assert (f.add_table is not None) == (f.p != 2 and f.q <= 2048)
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, f.q, (20, 25)), rng.integers(0, f.q, 25)
    a[0, :2], b[:2] = f.q - 1, (f.q - 1, 0)
    want = [[digit_sum(f, x, y) for x, y in zip(row, b.tolist())] for row in a.tolist()]
    assert f.add_many(a, b).tolist() == want
    monkeypatch.setattr(f, "add_table", None)
    assert f.add_many(a, b).tolist() == want


def test_matrix_basics():
    f = build_field(3)
    m = Matrix(f, [[1, 1], [0, 1]])
    assert m.order() == 3
    assert (m ** 3).is_identity()
    assert m ** 7 == m
    # matrix powers take no inverse: a negative exponent is refused
    for e in (-1, -2):
        with pytest.raises(ValueError, match="negative exponent"):
            m ** e
    for bad, why in (([[1, 1]], "square"), (np.eye(65), "at most 64"), ([[3, 0], [0, 1]], "field code")):
        with pytest.raises(ValueError, match=why):
            Matrix(f, bad)
    for other in (Matrix(build_field(5), np.eye(2)), Matrix(f, np.eye(3))):
        with pytest.raises(ValueError, match="different fields or sizes"):
            m @ other
    # the Frobenius map of GF(4) swaps its two elements outside GF(2)
    f4 = build_field(2, 2)
    frob = np.array([f4.frob(x) for x in range(4)])
    assert frob[Matrix(f4, [[2, 0], [0, 3]]).a].tolist() == [[3, 0], [0, 2]]


def test_group_checks_hold_without_asserts():
    f3 = build_field(3)
    one = [[1, 1], [0, 1]]
    with pytest.raises(ValueError, match="outside"):
        MatrixGroup(f3, 0, ())
    # an entry that is not a code of GF(3), a wrong shape, no generator at all
    for dim, gens in ((2, [[[1, 3], [0, 1]]]), (3, [one]), (2, one), (2, ()),
                      (2, np.empty((0, 2, 2)))):
        with pytest.raises(ValueError, match=f"not a {dim}x{dim} matrix over GF\\(3\\)"):
            MatrixGroup(f3, dim, gens)
    with pytest.raises(ValueError, match="not invertible"):
        MatrixGroup(f3, 2, [one, [[1, 1], [1, 1]]])
    # a float that is no integer is not truncated, a negative entry does not
    # wrap (-65535 is 1 mod 2^16): both would make the transvection one
    for bad in ([[1.7, 1], [0, 1]], np.array([[-65535, 1], [0, 1]])):
        with pytest.raises(ValueError, match="not a 2x2 matrix over GF\\(3\\)"):
            MatrixGroup(f3, 2, [bad])
        with pytest.raises(ValueError, match="not a field code"):
            Matrix(f3, bad)


def test_group_generators_are_read_only():
    # one group per universal spec is shared by every caller
    group = classical_generators("A(1,3)u")
    before = group.generators.copy()
    with pytest.raises(ValueError, match="read-only"):
        group.generators[0, 0, 0] = 2
    with pytest.raises(ValueError, match="read-only"):
        group.generators[1] += 1
    assert (group.generators == before).all()
    # the constructor copies the caller's stack
    stack = np.array(before)
    mine = MatrixGroup(group.field, group.dim, stack)
    stack[0, 0, 0] = 2
    assert (mine.generators == before).all() and mine == MatrixGroup(group.field, 2, before)


@pytest.mark.parametrize("at", [0, 22, 44])
def test_one_singular_generator_among_many_is_caught(at):
    group = classical_generators("2A(3,2)u")
    gens = np.concatenate([group.generators] * 8)
    assert len(gens) >= 45
    gens[at, -1] = gens[at, 0]
    with pytest.raises(ValueError, match="not invertible"):
        MatrixGroup(group.field, group.dim, gens)


def test_coset_counts_must_divide():
    # three elements cannot split into cosets of a subgroup of order 2
    # (the classes' orders, then their sizes)
    with pytest.raises(RuntimeError, match="not divisible"):
        _table(np.array([1, 2]), np.array([1, 2]), zn=2)
    with pytest.raises(RuntimeError, match="not divisible"):
        _table(np.array([1, 2, 2]), np.array([1, 1, 2]), zn=2)  # four, but one of order 1


def test_tables_without_a_record_hold_no_elements():
    # G/Z and V x| S tables keep no payload: asking them for elements or
    # per-element orders names the reason
    quotient = spectrum_table("A(1,5)s")
    cover = semidirect_spectrum(ModuleAction(classical_generators("A(1,4)u")))
    for table in (quotient, cover):
        assert table.payload is None
        for ask in (table.orders, lambda: table.element(0)):
            with pytest.raises(ValueError, match="no group record"):
                ask()


def test_table_histogram_must_sum_to_the_size():
    with pytest.raises(ValueError, match="sum to the size 3"):
        ElementTable(size=3, order_histogram={1: 1, 2: 1}, spectrum=(1, 2))


def test_table_spectrum_must_hold_one():
    with pytest.raises(ValueError, match="1 is not the least order"):
        ElementTable(size=2, order_histogram={2: 1, 4: 1}, spectrum=(2, 4))


def test_table_spectrum_must_be_the_sorted_histogram_keys():
    with pytest.raises(ValueError, match="sorted histogram keys"):
        ElementTable(size=2, order_histogram={1: 1, 2: 1}, spectrum=(2, 1))
    with pytest.raises(ValueError, match="sorted histogram keys"):
        ElementTable(size=2, order_histogram={1: 1, 2: 1}, spectrum=(1,))


def test_table_spectrum_must_be_divisor_closed():
    with pytest.raises(ValueError, match="divisor-closed at 6"):
        ElementTable(size=3, order_histogram={1: 1, 2: 1, 6: 1}, spectrum=(1, 2, 6))


def looped_table_error(size, order_histogram, spectrum):
    """The message of the first divisor-closure or Frobenius check that fails,
    each order factored and each divisor of the size summed on its own; None
    if all hold."""
    members = set(spectrum)
    for m in members:
        if any(m // p not in members for p in _factor(m)):
            return f"spectrum not divisor-closed at {m}"
    for n in divisors(size):
        if sum(c for m, c in order_histogram.items() if n % m == 0) % n:
            return f"elements of order dividing {n} are not a multiple of {n}"
    return None


# (size, histogram): several orders without their divisors, where the first
# one the set yields is reported; Frobenius counts failing first at n = 2, at
# n = 3 = 3 * gcd(3, exponent 2), at n = 4 = 2 * gcd(4, exponent 6) past
# n = 2 and 3, and at n = 5 in A5's histogram with two 5-elements moved to 10
CRAFTED_TABLES = [
    (10, {1: 1, 4: 2, 6: 3, 9: 4}),
    (8, {1: 1, 2: 1, 3: 1, 12: 5}),
    (6, {1: 1, 2: 2, 3: 3}),
    (12, {1: 1, 2: 11}),
    (24, {1: 1, 2: 1, 3: 2, 6: 20}),
    (60, {1: 1, 2: 15, 3: 20, 5: 22, 10: 2}),
]


@pytest.mark.parametrize("size, hist", CRAFTED_TABLES)
def test_table_checks_match_the_looped_checks(size, hist):
    want = looped_table_error(size, hist, tuple(sorted(hist)))
    assert want is not None
    with pytest.raises(ValueError) as e:
        ElementTable(size, hist, tuple(sorted(hist)))
    assert str(e.value) == want


def test_table_checks_match_the_looped_checks_on_random_histograms():
    rng = random.Random(22)
    outcomes = set()
    for _ in range(400):
        spectrum = (1, *sorted(rng.sample(range(2, 40), rng.randint(1, 6))))
        hist = {m: rng.choice([1, 2, 3, 4, 6, 8, m - 1, 2 * m]) for m in spectrum}
        hist[1] = 1
        size = sum(hist.values())
        want = looped_table_error(size, hist, spectrum)
        outcomes.add(want is None or want.split()[0])
        try:
            ElementTable(size, hist, spectrum)
            got = None
        except ValueError as e:
            got = str(e)
        assert got == want, (size, hist)
    # all three outcomes are drawn
    assert outcomes == {True, "spectrum", "elements"}


def test_sl2_3_exhaustive():
    t = enumerate_group(classical_generators("A(1,3)u"))
    assert t.size == 24
    assert t.spectrum == (1, 2, 3, 4, 6)
    assert t.order_histogram == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}
    # every element order agrees with naive repeated multiplication
    naive = sorted(t.element(i).order() for i in range(t.size))
    assert naive == sorted(t.orders().tolist())


def test_two_models_of_a5():
    direct = spectrum_table("A(1,4)u")     # SL2(4)
    quotiented = spectrum_table("A(1,5)")  # PSL2(5) via SL2(5) mod center
    assert direct.size == quotiented.size == 60
    assert direct.spectrum == quotiented.spectrum == (1, 2, 3, 5)


def test_two_models_of_l2_7():
    a = spectrum_table("A(2,2)u")  # SL3(2)
    b = spectrum_table("A(1,7)")   # PSL2(7)
    assert a.size == b.size == 168
    assert a.spectrum == b.spectrum == (1, 2, 3, 4, 7)
    assert a.order_histogram == b.order_histogram


def test_sp4_2():
    t = spectrum_table("C(2,2)u")
    assert t.size == 720
    assert t.spectrum == (1, 2, 3, 4, 5, 6)


def test_su_small():
    t = spectrum_table("2A(2,2)u")
    assert t.size == 216 and t.spectrum == (1, 2, 3, 4, 6, 12)
    t = spectrum_table("2A(2,2)")
    assert t.size == 72 and t.spectrum == (1, 2, 3, 4)
    t = spectrum_table("2A(2,3)u")
    assert t.size == 6048
    assert t.spectrum == (1, 2, 3, 4, 6, 7, 8, 12)


def test_su4_2():
    t = spectrum_table("2A(3,2)u")
    assert t.size == 25920
    assert t.spectrum == (1, 2, 3, 4, 5, 6, 9, 12)
    # trivial center: the simple version is the same group
    assert spectrum_table("2A(3,2)").spectrum == t.spectrum


def test_centers():
    # the center is the singleton classes
    for spec, order in (("A(1,3)u", 2), ("2A(2,2)u", 3), ("C(2,2)u", 1)):
        _, _, sizes, _ = _classes(enumerate_group(classical_generators(spec)).payload)
        assert (sizes == 1).sum() == order, spec


def test_cap_aborts_with_count():
    group = classical_generators("A(1,5)u")
    with pytest.raises(CapExceeded) as e:
        enumerate_group(group, cap=50)
    assert e.value.cap == 50
    assert 50 < e.value.found <= 120


def test_cap_exceeded_on_a_memo_hit_keeps_its_bound():
    # no closure runs on a memo hit, so no cosets are named, and found stays
    # within one chunk of the cap, as after a closure
    group = classical_generators("A(2,4)u")
    assert enumerate_group(group).size == 60480
    with pytest.raises(CapExceeded) as e:
        enumerate_group(group, cap=1000)
    err = e.value
    assert (err.found, err.cap, err.cosets, err.subgroup) == (1000 + _CAP_CHUNK, 1000, None, None)
    assert "at least 5096 elements found" in str(err)


def test_wide_key_fallback():
    # 7x7 over GF(3) needs 98 bits per matrix, beyond the u64 packing
    f = build_field(3)
    assert isinstance(_make_codec(f, 7), _VoidCodec)
    perms = [(1, 0, 2, 3), (1, 2, 3, 0)]  # generate Sym4
    gens = []
    for perm in perms:
        m = np.eye(7, dtype=np.uint16)
        m[:4, :4] = 0
        for i, j in enumerate(perm):
            m[j, i] = 1
        gens.append(m)
    t = enumerate_group(MatrixGroup(f, 7, gens))
    assert t.size == 24
    assert t.spectrum == (1, 2, 3, 4)
    assert t.order_histogram == {1: 1, 2: 9, 3: 8, 4: 6}


def test_generator_model_rejects_unknown_family():
    with pytest.raises(ValueError):
        classical_generators("G2(4)")
    with pytest.raises(ValueError):
        classical_generators(parse_group_spec("B(2,3)"))
