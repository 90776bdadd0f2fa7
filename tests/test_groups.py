import pytest

from omega.groups import GroupSpec, center_order, group_order, parse_group_spec


def test_parse_roundtrip():
    for text, fam, rank, q, ver in [
        ("C(2,4)u", "C", 2, 4, "universal"),
        ("E6(2)s", "E6", 6, 2, "simple"),
        ("2A(3,3)u", "2A", 3, 3, "universal"),
        ("A(1,9)", "A", 1, 9, "simple"),
        ("3D4(2)u", "3D4", 4, 2, "universal"),
        ("2E6(4)s", "2E6", 6, 4, "simple"),
        ("E7(3)u", "E7", 7, 3, "universal"),
        ("2D(4,2)u", "2D", 4, 2, "universal"),
    ]:
        spec = parse_group_spec(text)
        assert (spec.family, spec.rank, spec.q, spec.version) == (fam, rank, q, ver)
        assert parse_group_spec(str(spec)) == spec


def test_parse_derived_fields():
    spec = parse_group_spec("C(2,9)u")
    assert (spec.p, spec.k) == (3, 2)
    twisted = parse_group_spec("2E6(8)")
    assert (twisted.family, twisted.rank, twisted.p, twisted.k) == ("2E6", 6, 2, 3)


def test_parse_errors():
    for bad in (
        "B(2,2)x",      # unknown version
        "Q(2,3)u",      # unknown family
        "C(2,6)u",      # q not a prime power
        "C(1,3)u",      # rank too small for C
        "D(3,2)u",      # rank too small for D
        "E6(6,2)u",     # exceptional family takes one argument
        "A(2)u",        # classical family wants rank and q
        "C(2,4)uu",
        "C2,4",
        "",
    ):
        with pytest.raises(ValueError):
            parse_group_spec(bad)
    with pytest.raises(ValueError):
        parse_group_spec(17)


def test_orders_frozen():
    assert group_order(parse_group_spec("C(2,3)u")).factors == {2: 7, 3: 4, 5: 1}
    assert group_order(parse_group_spec("C(2,3)u")).n == 51840
    assert group_order(parse_group_spec("C(2,2)u")).n == 720
    assert group_order(parse_group_spec("A(1,4)u")).n == 60
    assert group_order(parse_group_spec("A(1,9)u")).n == 720
    assert group_order(parse_group_spec("A(2,2)u")).n == 168
    assert group_order(parse_group_spec("A(2,4)u")).n == 60480
    assert group_order(parse_group_spec("A(3,2)u")).n == 20160
    assert group_order(parse_group_spec("C(2,4)u")).n == 979200
    assert group_order(parse_group_spec("C(3,2)u")).n == 1451520
    assert group_order(parse_group_spec("2A(2,3)u")).n == 6048
    assert group_order(parse_group_spec("2A(3,2)u")).n == 25920


def test_simple_versions():
    assert group_order(parse_group_spec("A(1,9)s")).n == 360
    assert group_order(parse_group_spec("C(2,3)s")).n == 25920
    assert group_order(parse_group_spec("A(2,4)s")).n == 20160
    # Center of size 1 keeps universal and simple orders equal.
    assert group_order(parse_group_spec("E6(2)u")).n == group_order(parse_group_spec("E6(2)s")).n
    assert group_order(parse_group_spec("G2(3)u")).n == group_order(parse_group_spec("G2(3)s")).n


def test_center_orders():
    assert center_order(parse_group_spec("C(2,3)u")) == 2
    assert center_order(parse_group_spec("A(1,4)u")) == 1
    assert center_order(parse_group_spec("A(2,4)u")) == 3
    assert center_order(parse_group_spec("2A(3,2)u")) == 1
    assert center_order(parse_group_spec("2A(2,2)u")) == 3
    assert center_order(parse_group_spec("D(4,3)u")) == 4
    assert center_order(parse_group_spec("D(5,3)u")) == 2
    assert center_order(parse_group_spec("D(5,5)u")) == 4
    assert center_order(parse_group_spec("2D(4,3)u")) == 2
    assert center_order(parse_group_spec("E7(3)u")) == 2
    assert center_order(parse_group_spec("3D4(2)u")) == 1


def _poly_order(spec):
    # Independent route: evaluate the order polynomial directly.
    q, n = spec.q, spec.rank
    fam = spec.family
    if fam == "A":
        out = q ** (n * (n + 1) // 2)
        for i in range(2, n + 2):
            out *= q**i - 1
        return out
    if fam == "2A":
        out = q ** (n * (n + 1) // 2)
        for i in range(2, n + 2):
            out *= q**i - (-1) ** i
        return out
    if fam in ("B", "C"):
        out = q ** (n * n)
        for i in range(1, n + 1):
            out *= q ** (2 * i) - 1
        return out
    if fam == "D":
        out = q ** (n * (n - 1)) * (q**n - 1)
    elif fam == "2D":
        out = q ** (n * (n - 1)) * (q**n + 1)
    else:
        table = {
            "3D4": lambda: q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1),
            "G2": lambda: q**6 * (q**6 - 1) * (q**2 - 1),
            "F4": lambda: q**24 * (q**12 - 1) * (q**8 - 1) * (q**6 - 1) * (q**2 - 1),
            "E6": lambda: q**36
            * (q**12 - 1) * (q**9 - 1) * (q**8 - 1) * (q**6 - 1) * (q**5 - 1) * (q**2 - 1),
            "2E6": lambda: q**36
            * (q**12 - 1) * (q**9 + 1) * (q**8 - 1) * (q**6 - 1) * (q**5 + 1) * (q**2 - 1),
            "E7": lambda: q**63
            * (q**18 - 1) * (q**14 - 1) * (q**12 - 1) * (q**10 - 1) * (q**8 - 1)
            * (q**6 - 1) * (q**2 - 1),
        }
        return table[fam]()
    for i in range(1, n):
        out *= q ** (2 * i) - 1
    return out


def test_orders_match_polynomials():
    specs = [
        "A(1,5)u", "A(4,3)u", "2A(4,2)u", "B(3,3)u", "C(4,2)u", "D(4,2)u",
        "2D(4,3)u", "3D4(2)u", "G2(4)u", "F4(2)u", "E6(2)u", "2E6(2)u", "E7(2)u",
        "E7(9)u",
    ]
    for text in specs:
        spec = parse_group_spec(text)
        assert group_order(spec).n == _poly_order(spec), text


def test_simple_is_universal_over_center():
    for text in ("A(2,4)", "C(2,3)", "2A(3,2)", "D(4,3)", "E7(3)", "2E6(2)"):
        u = parse_group_spec(text + "u")
        s = parse_group_spec(text + "s")
        assert group_order(u).n == group_order(s).n * center_order(u), text


def test_su2_is_sl2():
    for q in (2, 3, 4, 5, 9):
        a = group_order(GroupSpec("A", 1, q, "universal")).n
        b = group_order(GroupSpec("2A", 1, q, "universal")).n
        assert a == b
