"""Record the output references that every bench job is checked against.

Run from the repository root, at the commit whose outputs are the
reference (the references in this directory were recorded at the seed
commit, before any optimisation)::

    python3 perfbench/record_references.py

For each of the ``N_SEEDS`` scenario seeds it stores the ``fusenav run``
report values and the masked feedback.csv digest of walk110 and city,
and the three per-walk mean errors of a Monte Carlo seed.  Re-recording
at a later commit makes the checks compare that commit with itself; do
it only when an output change is intended, and say so where the change
is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads as wl

N_SEEDS = 64  # run seeds wrap onto these (workloads.job_seeds)


def main() -> int:
    mods = wl.import_fusenav()
    work = wl.ROOT / ".bench_out" / "references"
    refs: dict = {"n_seeds": N_SEEDS}
    for name, cfg in (("walk110", wl.WALK110_CFG), ("city", wl.CITY_CFG)):
        truth = mods["sim"].gen_walk(mods["cli"].load_scenario(cfg))
        refs[name] = {"walk_s": truth.duration}
        for seed in range(N_SEEDS):
            argv = ["run", "--scenario", str(cfg), "--out", str(work), "--seed", str(seed)]
            rc, _ = wl.run_cli_inprocess(mods, argv)
            if rc != 0:
                print(f"{name} seed {seed}: exit {rc}", file=sys.stderr)
                return 1
            refs[name][str(seed)] = wl.run_outputs(work)
            print(name, seed, refs[name][str(seed)]["report"]["mean_m"], flush=True)
    refs["montecarlo"] = {}
    for seed in range(N_SEEDS):
        refs["montecarlo"][str(seed)] = wl.montecarlo_walks(mods, seed)
        print("montecarlo", seed, refs["montecarlo"][str(seed)], flush=True)
    shutil.rmtree(work, ignore_errors=True)
    Path(wl.REFERENCES).write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
