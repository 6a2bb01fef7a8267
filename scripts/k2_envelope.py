"""Check the two-point concentration of the largest nu <= s subgraph.

Samples graphs at edge probability p and tests whether the exact
maximum subgraph size X lands in (1 +- eps) * p * f(n, s), where
f(n, s) is the closed-form edge maximum over graphs with nu <= s.

    python3 scripts/k2_envelope.py --n 200 --s 2 --p 0.6 \
        --epsilon 0.3 --trials 50
"""

import argparse

from matchlab.campaign import k2_envelope, k2_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--s", type=int, default=2)
    ap.add_argument("--p", type=float, default=0.6)
    ap.add_argument("--epsilon", type=float, default=0.3)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    env = k2_envelope(args.n, args.s, args.p, args.epsilon)
    print(
        f"envelope [{env.lo:.1f}, {env.hi:.1f}] "
        f"around p*f = {env.center:.1f}"
    )
    print("trial,edges,x,ratio,ok")
    violations = 0
    for trial, edges, x_size in k2_sweep(
        args.n, args.s, args.p, args.seed, args.trials
    ):
        ok = env.holds(x_size)
        violations += not ok
        print(f"{trial},{edges},{x_size},{x_size / env.center:.4f},{ok}")
    print(f"# {violations} violations in {args.trials} trials")
    return 0 if violations == 0 else 3


if __name__ == "__main__":
    raise SystemExit(main())
