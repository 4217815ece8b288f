"""Command-line interface.

Exit codes: 0 success, 1 usage or input error, 2 counterexample found,
3 budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Optional

from .config import PROFILES, RunConfig
from .core import (
    BudgetExceededError,
    ResidueSet,
    parse_set,
    set_from_json,
    set_to_json,
)
from .chains import build_construction, compute_mu, construction_chain_family, extract_chain_structure, project_to_prime
from .digital import carry_stats, enumerate_digital_sets, is_digital, prime_condition
from .impact import DEFAULT_NODE_BUDGET, xi_search
from .progressions import alpha, alpha_profile, check_uniqueness, decompose, stability
from .verify import SUITES, canonical_json, run_suites

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3


def _parse_set_arg(raw: str, q: Optional[int]) -> ResidueSet:
    """Accept `q=N;{a,b,c}` literals, JSON objects, or a bare comma list
    combined with --q.  A --q beside a literal or JSON must be its modulus."""
    raw = raw.strip()
    if raw.startswith(("{", "q=")):
        A = set_from_json(json.loads(raw)) if raw.startswith("{") else parse_set(raw)
        if q is not None and q != A.q:
            raise ValueError(f"--q {q} disagrees with the set's modulus {A.q}")
        return A
    if q is None:
        raise ValueError(
            "a bare element list needs --q; alternatively pass 'q=N;{a,b,c}' "
            'or \'{"q": N, "elements": [...]}\''
        )
    elems = [int(tok) for tok in raw.split(",") if tok.strip()]
    return ResidueSet.from_elements(q, elems)


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "pretty":
        for k, v in obj.items():
            print(f"{k}: {v}")
    else:
        print(json.dumps(obj, sort_keys=True))


def _emit_rows(rows: list[dict], fmt: str) -> None:
    if fmt == "csv":
        if not rows:
            return
        keys = sorted({k for r in rows for k in r})
        w = csv.DictWriter(sys.stdout, fieldnames=keys)
        w.writeheader()
        w.writerows(rows)
    else:
        for r in rows:
            _emit(r, fmt)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="zqadd",
        description="exact additive-structure computations over Z_q",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, needs_set=False, needs_q=False, seed=False, workers=False, tabular=False):
        if needs_set or needs_q:
            p.add_argument("--q", type=int, required=needs_q)
        if needs_set:
            p.add_argument("--set", required=True, help="q=N;{a,b,c}, JSON, or a,b,c with --q")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if workers:
            p.add_argument("--workers", type=int, default=1)
        formats = ("json-lines", "csv", "pretty") if tabular else ("json-lines", "pretty")
        p.add_argument("--format", choices=formats, default="json-lines")

    p = sub.add_parser("xi", help="impact function value xi_A(n)")
    common(p, needs_set=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET)

    p = sub.add_parser("alpha", help="alpha_t(A) or the full profile")
    common(p, needs_set=True, tabular=True)
    p.add_argument("--d1", type=int, help="difference t; omit for the full profile")

    p = sub.add_parser("decomp", help="AP decomposition for a difference")
    common(p, needs_set=True)
    p.add_argument("--d1", type=int, required=True)

    p = sub.add_parser("stability", help="stable-components check")
    common(p, needs_set=True)

    p = sub.add_parser("uniqueness", help="classify the optimal-difference set when min alpha = 2")
    common(p, needs_set=True)

    p = sub.add_parser("digital", help="digital-set operations")
    dsub = p.add_subparsers(dest="digital_command", required=True)
    dp = dsub.add_parser("check", help="digital-set predicate and prime condition")
    common(dp, needs_set=True)
    dp = dsub.add_parser("enumerate", help="list all digital sets for (m, q)")
    common(dp, needs_q=True, tabular=True)
    dp.add_argument("--m", type=int, required=True)
    dp = dsub.add_parser("carries", help="carry statistics of a digit set (q = m^2)")
    common(dp, needs_set=True)

    p = sub.add_parser("construct", help="the chain-of-intervals construction")
    common(p)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("mu", help="minimal cardinality with xi(2) = xi(3) over Z_p")
    common(p)
    p.add_argument("--p", type=int, required=True, dest="prime")

    p = sub.add_parser("chains", help="chain decomposition of the complement")
    common(p, needs_set=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--k", type=int)

    p = sub.add_parser("verify", help="run named verification suites")
    common(p, seed=True, workers=True)
    p.add_argument("suites", nargs="+", choices=[name for name, _ in SUITES])
    p.add_argument("--profile", choices=PROFILES, default="desk")

    p = sub.add_parser("verify-all", help="run the whole verification suite")
    common(p, seed=True, workers=True)
    p.add_argument("--profile", choices=PROFILES, default="desk")

    return top


def _cmd_xi(args) -> int:
    A = _parse_set_arg(args.set, args.q)
    res = xi_search(A, args.n, node_budget=args.budget_nodes)
    out = {
        **set_to_json(A),
        "n": args.n,
        "value": res.value,
        "witness": sorted(res.witness.elements),
        "exact": res.exact,
        "nodes_explored": res.nodes_explored,
    }
    _emit(out, args.format)
    return EXIT_OK if res.exact else EXIT_BUDGET


def _cmd_alpha(args) -> int:
    A = _parse_set_arg(args.set, args.q)
    if args.d1 is not None:
        rows = [{**set_to_json(A), "t": args.d1, "alpha": alpha(A, args.d1)}]
    else:
        prof = alpha_profile(A)
        rows = [{"q": A.q, "t": t, "alpha": a} for t, a in sorted(prof.items())]
    _emit_rows(rows, args.format)
    return EXIT_OK


def _cmd_decomp(args) -> int:
    A = _parse_set_arg(args.set, args.q)
    dec = decompose(A, args.d1)
    _emit(
        {
            **set_to_json(A),
            "difference": args.d1,
            "alpha": dec.alpha,
            "full_cosets": list(dec.full_cosets),
            "progressions": [list(p) for p in dec.progressions],
        },
        args.format,
    )
    return EXIT_OK


def _cmd_stability(args) -> int:
    A = _parse_set_arg(args.set, args.q)
    rep = stability(A)
    out = {
        **set_to_json(A),
        "k": rep.k,
        "optimal_differences": list(rep.optimal_differences),
        "status": rep.status,
    }
    if rep.witness is not None:
        out["witness_difference"] = rep.witness[0]
        out["witness_set"] = sorted(rep.witness[1].elements)
    _emit(out, args.format)
    return EXIT_OK


def _cmd_uniqueness(args) -> int:
    A = _parse_set_arg(args.set, args.q)
    v = check_uniqueness(A)
    out = {
        **set_to_json(A),
        "difference_set": list(v.difference_set),
        "classification": v.classification,
        "hypotheses": v.hypothesis_report,
    }
    _emit(out, args.format)
    # an unexplained multiple decomposition under the full hypotheses would
    # contradict the uniqueness theorem
    unexplained = v.classification == "other" and all(v.hypothesis_report.values())
    return EXIT_COUNTEREXAMPLE if unexplained else EXIT_OK


def _cmd_digital(args) -> int:
    sub = args.digital_command
    if sub == "check":
        A = _parse_set_arg(args.set, args.q)
        w = is_digital(A)
        out = {**set_to_json(A), "digital": w is not None}
        if w is not None:
            out["m"] = w.m
            out["prime_condition"] = prime_condition(w.m, A.q)
        _emit(out, args.format)
        return EXIT_OK
    if sub == "enumerate":
        rows = [
            {"q": args.q, "m": args.m, "elements": sorted(w.set.elements)}
            for w in enumerate_digital_sets(args.m, args.q)
        ]
        _emit_rows(rows, args.format)
        return EXIT_OK
    if sub == "carries":
        A = _parse_set_arg(args.set, args.q)
        w = is_digital(A)
        if w is None:
            raise ValueError("carry statistics need a digital set")
        stats = carry_stats(w)
        _emit(
            {
                **set_to_json(A),
                "m": w.m,
                "distinct_carries": list(stats.distinct_carries),
                "nonzero_pair_count": stats.nonzero_pair_count,
            },
            args.format,
        )
        return EXIT_OK
    raise ValueError(f"unknown digital subcommand {sub!r}")


def _cmd_construct(args) -> int:
    spec = build_construction(args.m)
    p, A = project_to_prime(spec)
    fam = construction_chain_family(spec, p, A)
    _emit(
        {
            "m": args.m,
            "interval_count": sum(len(c) for c in spec.chains),
            "size": spec.size,
            "closed_form_size": spec.closed_form_size,
            "density": spec.density,
            "prime": p,
            "complement_size": A.size,
            "chain_runs": fam.run_count,
            "chain_count": len(fam.chains),
            "chain_conditions_hold": fam.valid,
        },
        args.format,
    )
    return EXIT_OK if fam.valid else EXIT_COUNTEREXAMPLE


def _cmd_mu(args) -> int:
    start = time.perf_counter()
    rec = compute_mu(args.prime)
    seconds = time.perf_counter() - start
    # search effort goes to stderr, so stdout stays the canonical record
    effort = {"p": rec.p, "mu": rec.mu, "nodes": rec.nodes, "seconds": round(seconds, 6)}
    print(json.dumps(effort), file=sys.stderr)
    _emit(
        {
            "p": rec.p,
            "mu": rec.mu,
            "witness_count": rec.witness_count,
            "witnesses_up_to_affine": [list(w) for w in rec.witnesses_up_to_affine],
            "sqrt_bound": rec.sqrt_bound,
            "log4_bound": rec.log4_bound,
            "bounds_hold": rec.bounds_hold,
            "strategy": rec.strategy,
        },
        args.format,
    )
    return EXIT_OK if rec.bounds_hold else EXIT_COUNTEREXAMPLE


def _cmd_chains(args) -> int:
    A = _parse_set_arg(args.set, args.q)
    fam = extract_chain_structure(A, args.d1, args.d2, k_bound=args.k)
    _emit(
        {
            **set_to_json(A),
            "d1": args.d1,
            "d2": args.d2,
            "occupied_cosets": fam.z,
            "subgroup_order": fam.subgroup_order,
            "run_count": fam.run_count,
            "chains": [[list(run) for run in chain] for chain in fam.chains],
            "violations": list(fam.violations),
        },
        args.format,
    )
    return EXIT_OK if fam.valid else EXIT_COUNTEREXAMPLE


def _cmd_verify(args, names: Optional[list[str]]) -> int:
    cfg = RunConfig(seed=args.seed, workers=args.workers, profile=args.profile)
    report = run_suites(cfg, names)
    if args.format == "pretty":
        for s in report["suites"]:
            state = "pass" if s["passed"] else "FAIL"
            print(f"{s['suite']}: {state} ({s['instances']} instances)")
        print("overall:", "pass" if report["passed"] else "FAIL")
    else:
        print(canonical_json(report))
    return EXIT_OK if report["passed"] else EXIT_COUNTEREXAMPLE


_DISPATCH = {
    "xi": _cmd_xi,
    "alpha": _cmd_alpha,
    "decomp": _cmd_decomp,
    "stability": _cmd_stability,
    "uniqueness": _cmd_uniqueness,
    "digital": _cmd_digital,
    "construct": _cmd_construct,
    "mu": _cmd_mu,
    "chains": _cmd_chains,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means "counterexample
        # found" here; --help exits 0
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        if args.command == "verify":
            return _cmd_verify(args, args.suites)
        if args.command == "verify-all":
            return _cmd_verify(args, None)
        return _DISPATCH[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
