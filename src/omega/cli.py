"""Command line front end for descriptors, oracle runs, and the claim suite."""

import argparse
import json
import math
import sys

from . import spectra
from .arith import zsigmondy
from .claims import run_suite
from .groups import GroupSpec, group_order, parse_group_spec
from .oracle import (
    DEFAULT_CAP,
    CapExceeded,
    ModuleAction,
    WitnessSearchError,
    cached_spectrum_table,
    classical_generators,
    frobenius_witness,
    semidirect_spectrum,
    spectrum_table,
    verify_frobenius,
)

GRAMMAR = (
    "group grammar: FAMILY(RANK,Q)VERSION, or FAMILY(Q)VERSION for the fixed-rank "
    "families 3D4/G2/F4/E6/2E6/E7; families A 2A B C D 2D plus the fixed-rank ones; "
    "version u = universal, s = simple; examples: A(1,4)u C(2,4)u 3D4(2)s E7(3)u"
)


def _cap(text):
    """An enumeration cap: an integer of at least 1."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"wants an integer of at least 1, got {text!r}")
    return cap


def build_parser():
    ap = argparse.ArgumentParser(
        prog="omega",
        description="element-order spectra of groups of Lie type, with an exhaustive oracle",
        epilog=GRAMMAR,
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text, *, group=False, eps=False, qn=False, cap=False,
            cache=False, suite=False):
        p = sub.add_parser(name, help=help_text, epilog=GRAMMAR)
        if group:
            p.add_argument("--group", required=True, help="group spec string")
        if eps:
            p.add_argument("--eps", choices=["+", "-"], help="twisting sign for E6")
        if qn:
            p.add_argument("--q", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
        if cap:
            p.add_argument("--cap", type=_cap, default=DEFAULT_CAP,
                           help="enumeration abort threshold")
        if cache:
            p.add_argument("--cache", help="cache directory (default: no cache)")
        if suite:
            p.add_argument("--suite", required=True,
                           help="all, a strategy name, or comma-separated claim ids")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add("spectrum", "closed-form order descriptor of a group", group=True, eps=True)
    add("prime-graph", "prime graph of a closed-form descriptor", group=True, eps=True)
    add("zsigmondy", "primitive prime divisor of q^n - 1", qn=True)
    add("enumerate", "exhaustive element-order table", group=True, cap=True, cache=True)
    add("semidirect", "orders of the natural-module split extension", group=True, cap=True)
    add("frobenius", "build and verify a Frobenius subgroup witness", group=True)
    add("verify", "run the claim catalog", suite=True)
    add("order", "closed-form group order", group=True)
    return ap


def _covers(spec, covered, center):
    """Reject a version the descriptor does not describe.

    Each closed-form descriptor speaks about one version; the other one
    coincides exactly when the center between them is trivial.
    """
    if spec.version != covered and center != 1:
        raise ValueError(
            f"the {spec.family} descriptor covers the {covered} version; at q={spec.q} "
            f"the two versions differ by a center of order {center}")


def _descriptor_for(args):
    spec = parse_group_spec(args.group)
    eps = getattr(args, "eps", None)
    fam, q = spec.family, spec.q
    if fam in ("E6", "2E6"):
        if fam == "2E6" and eps == "+":
            raise ValueError("2E6 already fixes the twisting sign, drop --eps")
        if eps == "-":
            spec = GroupSpec("2E6", spec.rank, q, spec.version)
        sign = "-" if spec.family == "2E6" else "+"
        _covers(spec, "simple", math.gcd(3, q + 1 if sign == "-" else q - 1))
        return spec, spectra.e6_semisimple_spectrum(q, sign), None
    if eps is not None:
        raise ValueError(f"--eps only applies to E6, not {fam}")
    if fam == "E7":
        _covers(spec, "universal", math.gcd(2, q - 1))
        return spec, spectra.e7_semisimple_spectrum(q), None
    if fam == "3D4":
        return spec, spectra.d43_mixed_spectrum(q), None
    if fam in ("B", "C"):
        _covers(spec, "universal", math.gcd(2, q - 1))
        note = None
        if fam == "B":
            note = "computed via the symplectic torus parametrization (same torus orders)"
        return spec, spectra.symplectic_torus_spectrum(spec.rank, q), note
    raise ValueError(f"no closed-form descriptor catalogued for family {fam}")


def _hist_pairs(table):
    return [[int(k), int(v)] for k, v in sorted(table.order_histogram.items())]


def _cmd_spectrum(args):
    spec, desc, note = _descriptor_for(args)
    return {
        "group": str(spec),
        "scope": desc.scope,
        "generators": [int(g) for g in desc.generators],
        "note": note,
    }, 0


def _cmd_prime_graph(args):
    spec, desc, note = _descriptor_for(args)
    graph = spectra.prime_graph(desc)
    wit = spectra.pg_nonadjacency_witnesses(graph)
    return {
        "group": str(spec),
        "scope": desc.scope,
        "vertices": [int(v) for v in graph.vertices],
        "edges": [[int(a), int(b)] for a, b in graph.edges],
        "witnesses": {str(r): wit[r] for r in graph.vertices},
        "note": note,
    }, 0


def _cmd_zsigmondy(args):
    r = zsigmondy(args.q, args.n)
    note = None
    if r is None:
        note = f"q^n - 1 has no primitive prime divisor at (q, n) = ({args.q}, {args.n})"
    return {"q": args.q, "n": args.n, "r": r, "note": note}, 0


def _cmd_enumerate(args):
    spec = parse_group_spec(args.group)
    table = cached_spectrum_table(spec, args.cap, args.cache or None)
    return {
        "group": str(spec),
        "size": table.size,
        "spectrum": [int(m) for m in table.spectrum],
        "order_histogram": _hist_pairs(table),
    }, 0


def _cmd_semidirect(args):
    spec = parse_group_spec(args.group)
    group = classical_generators(spec)
    base = spectrum_table(spec, args.cap)
    cover = semidirect_spectrum(ModuleAction(group), args.cap)
    added = sorted(set(cover.spectrum) - set(base.spectrum))
    note = None
    if spec.version == "simple":
        note = "the module carries the universal matrix group; base spectrum is the simple one"
    return {
        "group": str(spec),
        "module_dim": group.dim,
        "size": cover.size,
        "spectrum": [int(m) for m in cover.spectrum],
        "added_orders": [int(m) for m in added],
        "note": note,
    }, 0


def _cmd_frobenius(args):
    spec = parse_group_spec(args.group)
    if spec.family == "A":
        kind, params = "sl-hyperplane", (spec.rank + 1, spec.q)
    elif spec.family == "C":
        if spec.rank & (spec.rank - 1) or spec.q % 2:
            raise ValueError("the symplectic witness needs even q and 2-power rank")
        kind, params = "sp-torus", (spec.rank, spec.q)
    else:
        raise ValueError(f"no witness family catalogued for {spec.family}")
    w = frobenius_witness(kind, params)
    verdict = verify_frobenius(w.kernel_gens, w.complement_gens)
    payload = {
        "kind": kind,
        "params": list(params),
        "kernel_order": verdict.kernel_order,
        "complement_order": verdict.complement_order,
        "verified": verdict.ok,
        "reason": verdict.reason or None,
    }
    return payload, 0 if verdict.ok else 1


def _cmd_verify(args):
    name = args.suite
    if name == "all":
        selector = None
    elif name in ("arithmetic", "descriptor", "oracle", "skipped"):
        selector = name
    else:
        selector = [part.strip() for part in name.split(",") if part.strip()]
        if not selector:
            raise ValueError("empty suite selector")
    results = [r.as_dict() for r in run_suite(selector)]
    failed = sum(1 for r in results if r["verdict"] == "fail")
    return {"suite": name, "results": results, "failed": failed}, 1 if failed else 0


def _cmd_order(args):
    spec = parse_group_spec(args.group)
    fo = group_order(spec)
    return {"group": str(spec), "order": fo.n, "factorization": str(fo)}, 0


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "prime-graph": _cmd_prime_graph,
    "zsigmondy": _cmd_zsigmondy,
    "enumerate": _cmd_enumerate,
    "semidirect": _cmd_semidirect,
    "frobenius": _cmd_frobenius,
    "verify": _cmd_verify,
    "order": _cmd_order,
}


def _pretty(payload, out):
    for key, value in payload.items():
        if value is None:
            continue
        if key == "results":
            for row in value:
                print(f"  {row['id']} {json.dumps(row['params'], sort_keys=True)} "
                      f"{row['verdict']}", file=out)
            continue
        if isinstance(value, list) and value and isinstance(value[0], list):
            text = " ".join(",".join(str(x) for x in pair) for pair in value)
        elif isinstance(value, list):
            text = " ".join(str(x) for x in value)
        elif isinstance(value, dict):
            text = " ".join(f"{k}:{v}" for k, v in sorted(value.items()))
        else:
            text = str(value)
        print(f"{key}: {text}", file=out)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        payload, code = _DISPATCH[args.subcommand](args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        print(GRAMMAR, file=sys.stderr)
        return 2
    except WitnessSearchError as e:
        print(f"witness search failed: {e}", file=sys.stderr)
        return 1
    except CapExceeded as e:
        print(f"enumeration aborted: {e}", file=sys.stderr)
        if getattr(args, "cap", None):
            spec = parse_group_spec(args.group)
            uni = GroupSpec(spec.family, spec.rank, spec.q, "universal")
            print(f"the universal group {uni} has order {group_order(uni).n}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        _pretty(payload, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
