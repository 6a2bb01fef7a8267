"""Record the answers that run.py checks at the default seed.

    python3 bench/make_reference.py [workload ...]

For each workload (all by default) it runs rounds 0..ROUNDS-1 of the
default seed serially and writes reference/<workload>.json. Answers do not
depend on the worker count. Regenerate only on a commit whose answers are
trusted: later runs at the default seed are judged against these files, and
rounds past the recorded ones get the witness checks alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from checks import REFERENCE_DIR, answer, read_jsonl  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, round_blob  # noqa: E402

from matchlab.campaign import CampaignConfig, run_campaign  # noqa: E402

# More rounds than a run at run_seconds completes on the machine the
# references were recorded on.
ROUNDS = 40


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args()
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workloads:
            rounds = []
            for r in range(ROUNDS):
                out = str(Path(tmp) / f"{name}-{r}")
                blob = round_blob(name, DEFAULT_SEED, r, out, threads=1)
                run_campaign(CampaignConfig.from_dict(blob))
                rounds.append([answer(rec) for rec in read_jsonl(out + ".jsonl")])
            path = REFERENCE_DIR / f"{name}.json"
            with open(path, "w") as fh:
                json.dump(
                    {"workload": name, "seed": DEFAULT_SEED, "rounds": rounds},
                    fh,
                    separators=(",", ":"),
                )
                fh.write("\n")
            print(f"{path}: {ROUNDS} rounds", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
