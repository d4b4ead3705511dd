"""Record the reference physical outputs that bench/run.py checks against.

usage: python3 bench/record.py [KEY ...]

Runs every workload, full size and --tiny, once on each of the base seeds
that run.py folds user seeds onto, and writes bench/references.json.  KEYs
(such as "hall-L24" or "hall-L24/tiny") restrict the recording to those
entries and keep the others.  A run
with suite violations is not recorded and makes this script fail.  Record
only at a commit whose outputs are trusted; a later change that moves a
compared value beyond run.RTOL shows up as failed checks.
"""

import json
import shutil
import sys

import run


def main(keys) -> int:
    references = json.loads(run.REFERENCES.read_text()) if keys else {}
    bad = []
    for workload in run.WORKLOADS:
        for tiny in (False, True):
            key = run.reference_key(workload, tiny)
            if keys and key not in keys:
                continue
            references[key] = {}
            for offset in range(run.N_BASE_SEEDS):
                base_seed = run.BASE_SEED0 + offset
                work = run.WORK / f"record-{workload}{'-tiny' if tiny else ''}-{base_seed}"
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                config = work / "config.ini"
                config.write_text(run.config_text(workload, base_seed, tiny))
                data = run.run_child("plain", config, work / "out", work / "result.json")
                if data["violations"]:
                    bad.append((key, base_seed, data["violations"]))
                else:
                    out_dir = work / "out" / run.WORKLOADS[workload]["run"]["name"]
                    experiment = run.WORKLOADS[workload]["run"]["experiment"]
                    references[key][str(base_seed)] = run.physical_outputs(experiment, out_dir)
                shutil.rmtree(work)
                print(f"{key} {base_seed}: {data['wall_s']:.2f} s, "
                      f"{len(data['violations'])} violations", flush=True)
    for key, base_seed, violations in bad:
        print(f"NOT RECORDED {key} {base_seed}: {violations}", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
