"""Record every workload's stdout digest at the given seeds.

Usage, from the root of the repository::

    python3 e2ebench/make_references.py 0 1

Each digest comes from one cold, untraced invocation, exactly as
``run.py`` makes them, and is merged into ``references.json``. Run it
only on a commit whose output is the reference: every later commit must
reproduce these bytes.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCES, invoke, work_area
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    seeds = [int(arg) for arg in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    with work_area() as work_root:
        for name, workload in WORKLOADS.items():
            for seed in seeds:
                inv = invoke(workload, seed, False, work_root)
                if inv.failure:
                    print(f"{name} seed {seed}: {inv.failure}\n{inv.stderr[-2000:]}",
                          file=sys.stderr)
                    return 1
                references.setdefault(name, {})[str(seed)] = inv.digest
                print(f"{name} seed {seed}: {inv.digest}")
    REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
