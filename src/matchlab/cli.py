"""Command-line front end.

Verbs: sample, oracle, cover, decompose, certify, k2, regime, diag,
campaign.  Families travel as edge-list files (header "n k", one edge
per line).  Reports print as JSON; k2 sweeps print as CSV.  Exit codes:
0 success, 2 bad config or arguments, 3 campaign success floor missed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import regime_report, window_diagnostics
from .campaign import CampaignConfig, k2_envelope, k2_sweep, run_campaign
from .covers import (
    branching_cover,
    certify_decomposition,
    fan_cover,
    greedy_decompose,
)
from .errors import ConfigError, MatchlabError
from .families import (
    covering_number,
    matching_number,
    read_edge_file,
    write_edge_file,
)
from .oracle import extremal_verdict, max_family_nu_le
from .sampling import SampleSpec, sample_family


def _vertex_list(text):
    return tuple(int(tok) for tok in text.split(",") if tok)


def _emit(blob):
    print(json.dumps(blob, indent=2, sort_keys=True))


def _cmd_sample(args):
    spec = SampleSpec(
        n=args.n, k=args.k, p=args.p, seed=args.seed, trial_index=args.trial
    )
    fam = sample_family(spec)
    write_edge_file(fam, args.out)
    _emit({"spec": spec.to_dict(), "edges": len(fam), "out": args.out})
    return 0


def _cmd_oracle(args):
    fam = read_edge_file(args.family)
    nu, witness = matching_number(fam)
    tau, cover = covering_number(fam)
    blob = {
        "n": fam.n,
        "k": fam.k,
        "edges": len(fam),
        "nu": nu,
        "max_matching": [list(e) for e in witness.edges],
        "tau": tau,
        "cover": list(cover.vertices),
        "trivial": nu == tau,
    }
    if args.s is not None:
        if args.verdict:
            blob["verdict"] = extremal_verdict(fam, args.s).to_dict()
        else:
            size, _ = max_family_nu_le(fam, args.s)
            blob["max_size_nu_le_s"] = size
    _emit(blob)
    return 0


def _cmd_cover(args):
    fam = read_edge_file(args.family)
    if args.alg == "fan":
        basis = fan_cover(fam)
    else:
        basis = branching_cover(fam, args.t, meet=args.meet or None)
    _emit(
        {
            "algorithm": args.alg,
            "member_size": basis.member_size,
            "declared_bound": basis.declared_bound,
            "members": [list(m) for m in basis.members],
        }
    )
    return 0


def _cmd_decompose(args):
    fam = read_edge_file(args.family)
    dec = greedy_decompose(fam, args.t)
    _emit(
        {
            "t": dec.t,
            "sets": [list(w) for w in dec.sets],
            "deleted": list(dec.deleted()),
            "residual_edges": len(dec.residual),
            "residual_nu": matching_number(dec.residual)[0],
        }
    )
    return 0


def _cmd_certify(args):
    cert = certify_decomposition(read_edge_file(args.family), avoid=args.avoid)
    _emit(
        {
            "avoid": list(cert.avoid),
            "q": cert.q,
            "matching": [list(e) for e in cert.matching.edges],
            "x_set": list(cert.x_set),
            "h0_edges": len(cert.h0),
            "star_count": cert.star_count,
            "q_union": list(cert.q_union),
            "parts": [
                {
                    "index": part.index,
                    "tag": part.tag,
                    "edges": len(part.edges),
                    "center": part.center,
                    "q_set": None
                    if part.q_set is None
                    else list(part.q_set),
                    "prime": None
                    if part.prime is None
                    else list(part.prime),
                    "second": None
                    if part.second is None
                    else list(part.second),
                }
                for part in cert.parts
            ],
        }
    )
    return 0


def _cmd_k2(args):
    env = k2_envelope(args.n, args.s, args.p, args.epsilon)
    print("trial,edges,x,lo,hi,ok")
    bad = 0
    for trial, edges, x_size in k2_sweep(
        args.n, args.s, args.p, args.seed, args.trials
    ):
        ok = env.holds(x_size)
        bad += not ok
        print(f"{trial},{edges},{x_size},{env.lo:.6f},{env.hi:.6f},{ok}")
    print(f"# violations: {bad}/{args.trials}", file=sys.stderr)
    return 0 if bad == 0 else 3


def _cmd_regime(args):
    _emit(
        regime_report(
            args.n, args.k, args.s, t=args.t, eps=args.eps, p=args.p
        ).to_dict()
    )
    return 0


def _cmd_diag(args):
    _emit(window_diagnostics(args.n, args.k, args.s, args.p).to_dict())
    return 0


def _cmd_campaign(args):
    try:
        with open(args.config) as fh:
            blob = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.strict:
        blob["strict"] = True
    try:
        summary = run_campaign(CampaignConfig.from_dict(blob))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _emit(summary)
    return 0 if summary["ok"] else 3


def build_parser():
    top = argparse.ArgumentParser(
        prog="matchlab",
        description="Exact matching solvers and sampling experiments "
        "for uniform set families.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("sample", help="draw a seeded random family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("oracle", help="exact matching/cover numbers")
    p.add_argument("family", help="edge-list file")
    p.add_argument("--s", type=int)
    p.add_argument(
        "--verdict",
        action="store_true",
        help="with --s: compare best trivial vs non-trivial subfamilies",
    )
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("cover", help="small covering basis")
    p.add_argument("family")
    p.add_argument("--alg", choices=("fan", "branch"), default="fan")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--meet", type=_vertex_list, default=())
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("decompose", help="peel weak sets until resilient")
    p.add_argument("family")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("certify", help="partition a resilient family")
    p.add_argument("family")
    p.add_argument("--avoid", type=_vertex_list, default=())
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("k2", help="graph subgraph-size envelope sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=_cmd_k2)

    p = sub.add_parser("regime", help="threshold conditions report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--p", type=float)
    p.set_defaults(func=_cmd_regime)

    p = sub.add_parser("diag", help="matching count and window bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("campaign", help="run a gridded experiment")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_campaign)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatchlabError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
