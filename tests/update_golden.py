"""Rewrite tests/golden.json from the outputs of the program as it stands.

    PYTHONPATH=src python tests/update_golden.py

Runs test_golden's matrix at parallel.WORKERS 1 and 2 in a temporary
directory, writes nothing when the two disagree, and prints each digest
that moved, for the CHANGES.md entry of the change that moves them.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from test_golden import GOLDEN, build_sessions, cases, environment, moved_keys, run_matrix

from facepulse import parallel


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        runs = cases(build_sessions(Path(tmp)))
        os.chdir(tmp)
        by_workers = []
        for workers in (1, 2):
            parallel.WORKERS = workers
            by_workers.append(run_matrix(runs))
        os.chdir(home)
    one, two = by_workers
    if one != two:
        print("outputs differ between 1 and 2 workers; golden.json left as it is:",
              *moved_keys(one, two), sep="\n  ", file=sys.stderr)
        return 1
    old = json.loads(GOLDEN.read_text())["runs"] if GOLDEN.exists() else {}
    for line in moved_keys(old, one):
        print(f"moved: {line}")
    GOLDEN.write_text(json.dumps({**environment(), "runs": one}, indent=1, sort_keys=True)
                      + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
