"""Record the output digests that every benchmark run is checked against.

    PYTHONPATH=src python3 perfbench/record_reference.py [WORKLOAD ...]

For each named workload (default: all) and each of the ``SEED_SLOTS``
driver seeds, makes one driver call at ``workers=1`` and stores the sha256
of every output file in ``reference.json``.  Recording at ``workers=1``
makes each benchmark run at the workload's own worker count a check that
outputs do not depend on the worker count.  Re-record only at a commit
whose outputs are meant to become the new reference.
"""

import json
import sys
import tempfile

import workloads
from workloads import HERE, REFERENCE, SEED_SLOTS, WORKLOADS


def main(names) -> int:
    import shapedist.experiments as experiments

    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    recorded = {}
    for name in names or sorted(WORKLOADS):
        driver = getattr(experiments, WORKLOADS[name]["driver"])
        recorded[name] = {}
        for slot in range(SEED_SLOTS):
            seed_value = workloads.base_seed(slot)
            with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
                driver(workloads.make_config(experiments, name, seed_value, 1, out_dir))
                recorded[name][str(seed_value)] = workloads.digests(name, out_dir)
            print(name, seed_value, flush=True)
    reference = workloads.load_reference() if REFERENCE.exists() else {}
    reference.update(recorded)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
