"""Record the reference outputs the benchmark checks every job against.

    python3 bench/record_reference.py

Run from the root of a checkout whose outputs are known good. For each
link (``small`` for ga_link and ga_link_pool, ``large`` for dof_large) it
runs the ``dof`` job once and the ``optimize`` job for every GA seed in
0 .. N_GA_SEEDS-1, serially, and writes bench/reference.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def main() -> int:
    harness.prepare(ROOT)
    counter = harness.EvalCounter()
    counter.install()
    work = ROOT / ".bench_out" / "record"
    refs = {
        "source_sha256_16": harness.source_digest(ROOT),
        "git_commit": harness.git_commit(ROOT),
    }
    for key, name in (("small", "ga_link"), ("large", "dof_large")):
        workload = harness.WORKLOADS[name]
        table = {"optimize": {}}
        for command, seeds in (("dof", [0]),
                               ("optimize", range(harness.N_GA_SEEDS))):
            for seed in seeds:
                harness.clean(work)
                values = harness.job_config(workload, command, work / "out",
                                            seed)
                job = harness.run_job(command, values, work, counter)
                if not job.ok:
                    raise RuntimeError(f"{name} {command} seed {seed}: "
                                       f"{job.error}")
                if command == "dof":
                    table["dof"] = job.summary
                else:
                    table["optimize"][str(seed)] = job.summary
                print(f"{key} {command} seed {seed}: {job.wall_s:.2f} s",
                      flush=True)
        refs[key] = table
    harness.clean(work)
    harness.REFERENCE_PATH.write_text(json.dumps(refs, indent=1) + "\n",
                                      "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
