#!/usr/bin/env python3
"""Record the reference digests that the benchmark checks outputs against.

For each seed and workload it runs the workload's fixed batch of commands
once, checks their outputs, and writes the digests to reference.json. Run it
from the root of a checkout at the commit whose outputs are the reference:

    python3 mdpbench/make_reference.py --seeds 0-10
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-10")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    os.environ["MDP_GEOM_THREADS"] = "1"
    bench_dir = Path(__file__).resolve().parent
    cli = workloads.import_package(bench_dir.parent)
    workdir = bench_dir / ".work" / f"reference-{os.getpid()}"
    reference = {}
    try:
        for workload in workloads.WORKLOADS.values():
            spec_path = workloads.write_spec(workload, workdir)
            for seed in seeds:
                digests = []
                for k in range(workload.batch):
                    outcome = workloads.run_command(cli, workload, seed, k, spec_path, workdir)
                    failed, digest, problems = workloads.check_command(workload, outcome)
                    if failed or problems:
                        print(f"{workload.name} seed {seed} command {k}: {problems}", file=sys.stderr)
                        return 1
                    digests.append(digest)
                reference.setdefault(workload.name, {})[str(seed)] = digests
                print(f"{workload.name} seed {seed}: {digests}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
