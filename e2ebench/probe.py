"""One workload process: ``repro.cli.main`` on each command, in order.

Usage: ``python3 probe.py TRACE COMMANDS_JSON``, run with the working
directory set to a fresh, empty directory. ``COMMANDS_JSON`` is a list
of argument lists, such as ``[["reproduce", "figure4", "--seed", "0"]]``;
each is what ``python -m repro`` would receive on its command line.

Untraced (``TRACE`` = 0), the process does what ``python -m repro``
does, plus one clock read when ``repro.cli`` has been imported. It lands
in ``probe.json`` in the working directory once the commands are done.
Traced (``TRACE`` = 1), :mod:`layertrace` wraps the layers' entry points
first, and the spans go to ``spans-*.pkl`` beside it.
"""

import json
import sys
import time
from pathlib import Path

#: Printed on stderr once ``repro.cli`` is imported; ``python -X
#: importtime`` lines before it are start-up imports.
SETUP_MARKER = "e2ebench: setup done"


def main() -> int:
    trace = sys.argv[1] == "1"
    commands = json.loads(sys.argv[2])
    import repro.cli

    setup_done = time.monotonic()
    entry = repro.cli.main
    recorder = None
    workdir = Path.cwd()
    if trace:
        print(SETUP_MARKER, file=sys.stderr, flush=True)
        import layertrace

        recorder = layertrace.Recorder()
        entry = layertrace.install(recorder, workdir, entry)
    code = 0
    for argv in commands:
        code = entry(argv) or code
    if recorder is not None:
        recorder.dump(workdir / "spans-coordinator.pkl", "coordinator")
    (workdir / "probe.json").write_text(json.dumps({"setup_done": setup_done}))
    return code


if __name__ == "__main__":
    sys.exit(main())
