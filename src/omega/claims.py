"""Catalog of checkable assertions with pass/fail/skipped verdicts.

Each claim pins one statement about element orders, prime graphs, or covers.
Strategies: "arithmetic" (pure integer identities), "descriptor" (closed-form
order sets), "oracle" (exhaustive enumeration), "skipped" (honest gaps with a
recorded reason).  Evidence dicts are JSON-friendly and deterministic.
"""

import math

import numpy as np

from . import spectra
from .arith import factorize, gcd_identity_suite, is_prime, is_prime_power, zsigmondy
from .groups import GroupSpec, group_order, parse_group_spec
from .oracle import (
    DEFAULT_CAP,
    Matrix,
    MatrixGroup,
    ModuleAction,
    classical_generators,
    enumerate_group,
    frobenius_witness,
    min_poly_degree,
    permutation_module,
    semidirect_spectrum,
    spectrum_table,
    verify_frobenius,
)
from .oracle.action import _cover_witness
from .oracle.matgroup import _classes
from .record import Record


class Claim(Record):
    _fields = ("id", "statement", "strategy", "grid", "skip_reason")

    def __init__(self, id, statement, strategy, grid=(), skip_reason=""):
        if strategy not in ("arithmetic", "descriptor", "oracle", "skipped"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy == "skipped" and not skip_reason:
            raise ValueError(f"skipped claim {id} needs a skip reason")
        if strategy != "skipped" and not grid:
            raise ValueError(f"claim {id} needs a grid")
        vars(self).update(id=id, statement=statement, strategy=strategy, grid=grid,
                          skip_reason=skip_reason)


class ClaimResult(Record):
    _fields = ("claim_id", "params", "verdict", "evidence")

    def __init__(self, claim_id, params, verdict, evidence):
        if verdict not in ("pass", "fail", "skipped"):
            raise ValueError(f"unknown verdict {verdict!r}")
        vars(self).update(claim_id=claim_id, params=params, verdict=verdict, evidence=evidence)

    def as_dict(self):
        return {
            "id": self.claim_id,
            "params": dict(self.params),
            "verdict": self.verdict,
            "evidence": self.evidence,
        }


def _want_int(params, key, lo=None):
    if key not in params:
        raise ValueError(f"missing parameter {key!r}")
    v = params[key]
    if not isinstance(v, int):
        raise ValueError(f"parameter {key!r} must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ValueError(f"parameter {key!r} must be >= {lo}, got {v}")
    return v


def _even_prime_power(q, strict=2):
    if is_prime_power(q) is None or q % 2 or q <= strict:
        raise ValueError(f"wants an even prime power q > {strict}, got {q}")


def _budget(spec):
    order = group_order(spec).n
    if order > DEFAULT_CAP:
        raise ValueError(f"{spec} has order {order}, beyond the enumeration budget")


# -- helpers shared by the oracle-backed cover claims ------------------------


def _pair_order(s, v):
    """Order of (v, s) under the product (a, g)(b, h) = (a + g.b, g.h): the
    order of its image [[s, v], [0, 1]] under that injective homomorphism."""
    m = np.eye(s.dim + 1, dtype=np.uint16)
    m[:-1, :-1], m[:-1, -1] = s.a, v
    return Matrix(s.field, m).order()


def _check_even_cover(q, rank, target):
    spec = GroupSpec("C", rank, q, "universal")
    _budget(spec)
    group = classical_generators(spec)
    table = spectrum_table(spec)
    action = ModuleAction(group)
    cover = semidirect_spectrum(action)
    in_group = target in set(table.spectrum)
    in_cover = target in set(cover.spectrum)
    base = target // spec.p
    wit = _cover_witness(action, base)
    evidence = {
        "group": str(spec),
        "target": target,
        "in_group": in_group,
        "in_cover": in_cover,
        "group_spectrum": [int(x) for x in table.spectrum],
    }
    ok = (not in_group) and in_cover
    if wit is not None:
        s, v = wit
        got = _pair_order(s, v)
        evidence["witness"] = {
            "s": [[int(x) for x in row] for row in s.a],
            "v": [int(x) for x in v],
            "pair_order": got,
        }
        ok = ok and got == target
    else:
        evidence["witness"] = None
        ok = False
    return ok, evidence


# -- individual checks --------------------------------------------------------


def _check_c1(params):
    q = _want_int(params, "q")
    _even_prime_power(q)
    desc = spectra.d43_mixed_spectrum(q)
    targets = (2 * (q * q - 1), 4 * (q + 1))
    member = {str(t): (t in desc) for t in targets}
    ok = not any(member.values())
    return ok, {
        "q": q,
        "generators": [int(g) for g in desc.generators],
        "targets": list(targets),
        "member": member,
    }


def _gcd_rows(params, row_id, lo_floor):
    lo = _want_int(params, "q_lo", lo_floor)
    hi = _want_int(params, "q_hi", lo)
    rows = gcd_identity_suite(range(lo, hi + 1), (row_id,))
    if not rows:
        raise ValueError(f"no q in [{lo}, {hi}] feeds the {row_id} identity")
    bad = [r for r in rows if not r["ok"]]
    ok = not bad
    return ok, {"q_lo": lo, "q_hi": hi, "checked": len(rows), "failures": bad[:10]}


def _check_c2(params):
    return _gcd_rows(params, "e6-gcd", 2)


def _check_c3(params):
    return _gcd_rows(params, "sp-gcd", 2)


def _check_c4(params):
    q = _want_int(params, "q")
    _even_prime_power(q)
    return _check_even_cover(q, 2, 8)


def _check_c5(params):
    q = _want_int(params, "q")
    if q != 2:
        raise ValueError(f"the rank-3 instance is pinned at q = 2, got {q}")
    return _check_even_cover(q, 3, 24)


def _check_c6(params):
    n = _want_int(params, "n", 2)
    q = _want_int(params, "q")
    _even_prime_power(q, strict=0)
    if n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    spec = GroupSpec("C", n, q, "universal")
    _budget(spec)
    w = frobenius_witness("sp-torus", (n, q))
    verdict = verify_frobenius(w.kernel_gens, w.complement_gens)
    ok_frob = (
        verdict.ok
        and verdict.kernel_order == q**n + 1
        and verdict.complement_order == 2 * n
    )
    target = 2 * (2 * n)
    fld = w.kernel_gens[0].field
    sub = MatrixGroup(fld, 2 * n, [g.a for g in w.kernel_gens + w.complement_gens])
    small = semidirect_spectrum(ModuleAction(sub))
    in_small = target in set(small.spectrum)
    group = classical_generators(spec)
    big = semidirect_spectrum(ModuleAction(group))
    in_big = target in set(big.spectrum)
    in_group = target in set(spectrum_table(spec).spectrum)
    ok = ok_frob and in_small and in_big and not in_group
    return ok, {
        "kernel_order": verdict.kernel_order,
        "complement_order": verdict.complement_order,
        "verified": verdict.ok,
        "reason": verdict.reason,
        "target": target,
        "in_sub_cover": in_small,
        "in_full_cover": in_big,
        "in_group": in_group,
    }


def _check_c7(params):
    q = _want_int(params, "q")
    if is_prime_power(q) is None:
        raise ValueError(f"wants a prime power, got {q}")
    desc = spectra.e7_semisimple_spectrum(q)
    r9 = zsigmondy(q, 9)
    r18 = zsigmondy(q, 18)
    choice = {}
    ok = True
    for r in desc.primes():
        # 2 is exempt: for odd q the central involution of the covering group
        # multiplies onto everything, which says nothing about the quotient
        if r == 2 or r in (r9, r18):
            continue
        if (r * r9) not in desc:
            choice[str(r)] = r9
        elif (r * r18) not in desc:
            choice[str(r)] = r18
        else:
            choice[str(r)] = None
            ok = False
    return ok, {"q": q, "r9": r9, "r18": r18, "witness": choice}


def _check_c8(params):
    n = _want_int(params, "n", 2)
    q = _want_int(params, "q", 2)
    spec = GroupSpec("C", n, q, "universal")
    _budget(spec)
    torus = spectra.symplectic_torus_spectrum(n, q)
    table = spectrum_table(spec)
    p_prime = [m for m in table.spectrum if m % spec.p]
    oracle_desc = spectra.canonicalize(p_prime, "p_prime_only", spec)
    ok = oracle_desc.generators == torus.generators
    return ok, {
        "group": str(spec),
        "formula": [int(g) for g in torus.generators],
        "oracle": [int(g) for g in oracle_desc.generators],
    }


def _check_c9(params):
    q = _want_int(params, "q", 2)
    spec = GroupSpec("C", 2, q, "simple")
    _budget(GroupSpec("C", 2, q, "universal"))
    table = spectrum_table(spec)
    sp = set(table.spectrum)
    m = (q * q - 1) // math.gcd(2, q - 1)
    primes = set()
    for x in table.spectrum:
        primes.update(factorize(x).primes())
    blocked = {str(r): (r * m) not in sp for r in sorted(primes) if r != spec.p}
    literal = sorted(x for x in sp if x != m and x % m == 0)
    ok = m in sp and all(blocked.values())
    return ok, {
        "group": str(spec),
        "m": m,
        "in_spectrum": m in sp,
        "p": spec.p,
        "blocked": blocked,
        "literal_multiples": [int(x) for x in literal],
    }


def _check_c12(params):
    q_max = _want_int(params, "q_max", 2)
    n_max = _want_int(params, "n_max", 3)
    checked, gaps, bad = 0, [], []
    for q in range(2, q_max + 1):
        for n in range(3, n_max + 1):
            checked += 1
            r = zsigmondy(q, n)
            if r is None:
                gaps.append([q, n])
                continue
            fine = (
                is_prime(r)
                and r % n == 1
                and pow(q, n, r) == 1
                and all(pow(q, i, r) != 1 for i in range(1, n))
            )
            if not fine:
                bad.append([q, n, r])
    ok = not bad and gaps == [[2, 6]]
    return ok, {"checked": checked, "gaps": gaps, "failures": bad}


def _check_c13(params):
    if "group" not in params:
        raise ValueError("missing parameter 'group'")
    spec = parse_group_spec(params["group"])
    zorder = _want_int(params, "zorder", 3)
    _budget(GroupSpec(spec.family, spec.rank, spec.q, "universal"))
    r = zsigmondy(spec.q, zorder)
    if r is None:
        raise ValueError(f"no primitive prime divisor for ({spec.q}, {zorder})")
    table = spectrum_table(spec)
    desc = spectra.canonicalize(table.spectrum, "full")
    graph = spectra.prime_graph(desc)
    is_vertex = r in graph.vertices
    neighbors = [t for t in graph.vertices if t != r and graph.adjacent(r, t)] if is_vertex else []
    ok = is_vertex and not neighbors
    return ok, {
        "group": str(spec),
        "r": r,
        "vertices": [int(v) for v in graph.vertices],
        "edges": [[int(a), int(b)] for a, b in graph.edges],
        "neighbors_of_r": [int(t) for t in neighbors],
    }


_C14_MODELS = ("sp4-natural", "sym6-mod3")


def _check_c14(params):
    model = params.get("model")
    if model not in _C14_MODELS:
        raise ValueError(f"model must be one of {_C14_MODELS}, got {model!r}")
    if model == "sp4-natural":
        group = classical_generators(GroupSpec("C", 2, 4, "universal"))
        action = ModuleAction(group)
    else:
        swap = (1, 0, 2, 3, 4, 5)
        cycle = (1, 2, 3, 4, 5, 0)
        action = permutation_module((swap, cycle), 3)
    m = 4
    fld = action.image_group.field
    table = enumerate_group(action.image_group)
    # the minimal polynomial is a class function: the first element found is a rep
    reps, _, _, orders = _classes(table.payload)
    u = None
    for i in reps[orders == m]:
        cand = table.element(int(i))
        if min_poly_degree(cand) == m:
            u = cand
            break
    cover = semidirect_spectrum(action)
    target = fld.p * m
    in_cover = target in set(cover.spectrum)
    in_group = target in set(table.spectrum)
    ok = u is not None and in_cover
    evidence = {
        "model": model,
        "element_order": m,
        "min_poly_degree": m if u is not None else None,
        "target": target,
        "in_cover": in_cover,
        "in_group": in_group,
    }
    if u is not None:
        evidence["u"] = [[int(x) for x in row] for row in u.a]
    return ok, evidence


def _check_c15(params):
    kind = params.get("kind")
    if not isinstance(kind, str):
        raise ValueError("missing parameter 'kind'")
    args = params.get("args")
    if not isinstance(args, (list, tuple)) or not all(isinstance(a, int) for a in args):
        raise ValueError("parameter 'args' must be a list of integers")
    w = frobenius_witness(kind, tuple(args))
    verdict = verify_frobenius(w.kernel_gens, w.complement_gens)
    ok = (
        verdict.ok
        and verdict.kernel_order == w.kernel_order
        and verdict.complement_order == w.complement_order
    )
    return ok, {
        "kind": kind,
        "args": list(args),
        "kernel_order": verdict.kernel_order,
        "complement_order": verdict.complement_order,
        "expected": [w.kernel_order, w.complement_order],
        "verified": verdict.ok,
        "reason": verdict.reason,
    }


_CHECKS = {
    "C1": _check_c1,
    "C2": _check_c2,
    "C3": _check_c3,
    "C4": _check_c4,
    "C5": _check_c5,
    "C6": _check_c6,
    "C7": _check_c7,
    "C8": _check_c8,
    "C9": _check_c9,
    "C12": _check_c12,
    "C13": _check_c13,
    "C14": _check_c14,
    "C15": _check_c15,
}


CATALOG = (
    Claim(
        id="C1",
        statement="neither 2(q^2-1) nor 4(q+1) is a mixed element order of 3D4(q) for even q > 2",
        strategy="descriptor",
        grid=({"q": 4}, {"q": 8}, {"q": 16}, {"q": 32}),
    ),
    Claim(
        id="C2",
        statement="gcd((q^5-1)(q+1), q^2-q+1) = gcd(q+1, 3) for every q >= 2",
        strategy="arithmetic",
        grid=({"q_lo": 2, "q_hi": 1000},),
    ),
    Claim(
        id="C3",
        statement="gcd(q^(n-1) - e, p+1) = 2 for odd q = p^k, n in 2..12, e = +1 iff k(n-1) is odd",
        strategy="arithmetic",
        grid=({"q_lo": 3, "q_hi": 1000},),
    ),
    Claim(
        id="C4",
        statement="8 is an order in the natural-module split extension of Sp4(q) but not in Sp4(q), q even > 2",
        strategy="oracle",
        grid=({"q": 4},),
    ),
    Claim(
        id="C5",
        statement="24 is an order in the natural-module split extension of Sp6(2) but not in Sp6(2)",
        strategy="oracle",
        grid=({"q": 2},),
    ),
    Claim(
        id="C6",
        statement="Sp4(4) holds a verified Frobenius subgroup 17:4 and 8 lands in the natural split extension's orders",
        strategy="oracle",
        grid=({"n": 2, "q": 4},),
    ),
    Claim(
        id="C7",
        statement="every odd prime of the E7(q) semisimple-order set is non-adjacent within it to a degree-9 or degree-18 primitive divisor",
        strategy="descriptor",
        grid=({"q": 2}, {"q": 3}, {"q": 4}, {"q": 5}, {"q": 8}, {"q": 9}),
    ),
    Claim(
        id="C8",
        statement="the signed-partition torus formula equals the exhaustive p'-spectrum of Sp_2n(q)",
        strategy="oracle",
        grid=({"n": 2, "q": 2}, {"n": 2, "q": 3}, {"n": 2, "q": 4}, {"n": 3, "q": 2}),
    ),
    Claim(
        id="C9",
        statement="(q^2-1)/gcd(2,q-1) is an order of the simple rank-2 symplectic group and r times it is not, for every prime r != p",
        strategy="oracle",
        grid=({"q": 2}, {"q": 3}, {"q": 4}),
    ),
    Claim(
        id="C10",
        statement="certain doubled torus orders avoid the F4(q) spectrum",
        strategy="skipped",
        skip_reason="needs element orders of small orthogonal subgroups that only outside tables provide",
    ),
    Claim(
        id="C11",
        statement="an order-7 element of the 7-dimensional orthogonal group over GF(3) fixes a vector in every cross-characteristic module",
        strategy="skipped",
        skip_reason="needs modular character data; direct enumeration (about 4.6e9 elements) is beyond the cap",
    ),
    Claim(
        id="C12",
        statement="primitive prime divisors of q^n-1 exist except at (q, n) = (2, 6), are 1 mod n, and divide no earlier q^i-1",
        strategy="arithmetic",
        grid=({"q_max": 10, "n_max": 20},),
    ),
    Claim(
        id="C13",
        statement="the chosen primitive prime divisor is an isolated vertex of the group's prime graph",
        strategy="oracle",
        grid=(
            {"group": "C(2,3)s", "zorder": 4},
            {"group": "C(2,4)u", "zorder": 4},
            {"group": "2A(3,2)u", "zorder": 4},
            {"group": "C(3,2)u", "zorder": 3},
        ),
    ),
    Claim(
        id="C14",
        statement="an element whose minimal polynomial degree equals its order puts characteristic-times-order into the split extension's orders",
        strategy="oracle",
        grid=({"model": "sp4-natural"}, {"model": "sym6-mod3"}),
    ),
    Claim(
        id="C15",
        statement="the catalogued Frobenius witness families verify with their advertised kernel and complement orders",
        strategy="oracle",
        grid=(
            {"kind": "sl-hyperplane", "args": [3, 2]},
            {"kind": "sl-hyperplane", "args": [3, 3]},
            {"kind": "sl-hyperplane", "args": [3, 4]},
            {"kind": "sl-hyperplane", "args": [4, 2]},
            {"kind": "gl-affine", "args": [4, 1]},
            {"kind": "gl-affine", "args": [2, 2]},
            {"kind": "gl-affine", "args": [3, 2]},
        ),
    ),
    Claim(
        id="C16",
        statement="for odd q the odd element orders of the (2n+1)-dimensional orthogonal and rank-n symplectic groups coincide",
        strategy="skipped",
        skip_reason="smallest honest instance (n = 3, q = 3) is about 9e9 elements; n = 2 is degenerate since the groups agree",
    ),
)

_BY_ID = {c.id: c for c in CATALOG}


def run_claim(claim_id, params=None):
    """One verdict for one claim at one parameter point."""
    claim = _BY_ID.get(claim_id)
    if claim is None:
        raise ValueError(f"unknown claim {claim_id!r}")
    if claim.strategy == "skipped":
        return ClaimResult(claim_id, dict(params or {}), "skipped", {"reason": claim.skip_reason})
    p = dict(params or {})
    ok, evidence = _CHECKS[claim_id](p)
    return ClaimResult(claim_id, p, "pass" if ok else "fail", evidence)


def run_suite(selector=None):
    """Run claims over their default grids.  selector: None for everything, a
    strategy name, or an iterable of claim ids.  Catalog order throughout."""
    if selector is None:
        chosen = list(CATALOG)
    elif isinstance(selector, str):
        chosen = [c for c in CATALOG if c.strategy == selector]
    else:
        wanted = set(selector)
        unknown = wanted - set(_BY_ID)
        if unknown:
            raise ValueError(f"unknown claim ids {sorted(unknown)}")
        chosen = [c for c in CATALOG if c.id in wanted]
    results = []
    for claim in chosen:
        if claim.strategy == "skipped":
            results.append(run_claim(claim.id))
        else:
            for params in claim.grid:
                results.append(run_claim(claim.id, params))
    return results
