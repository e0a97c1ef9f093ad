"""Every artifact byte of a fixed set of CLI runs, pinned as test data.

``tests/data/artifact_digests.txt`` is the output of
``tools/artifact_digests.py`` on this tree.  A change that shifts an
artifact's bytes rewrites that file (``python tools/artifact_digests.py >
tests/data/artifact_digests.txt``), so its diff is the list of shifted runs.
The digests depend on the numpy build: the file's first line names the
Python and numpy versions it was taken with, and a run under other versions
fails, naming both, instead of comparing digests that cannot match.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "artifact_digests.txt"
TOOL = ROOT / "tools" / "artifact_digests.py"


def _by_run(lines):
    """Header line and {"<command> <config>": that run's lines}, a run being
    its ``exit`` line and every line up to the next one."""
    header, runs, current = lines[0], {}, None
    for line in lines[1:]:
        if line.startswith("exit "):
            current = line.split(" ", 2)[2]
            runs[current] = []
        runs[current].append(line)
    return header, runs


def test_artifact_digests_match_the_pinned_file():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True, check=True)
    pinned_header, pinned = _by_run(PINNED.read_text().splitlines())
    header, runs = _by_run(proc.stdout.splitlines())
    assert header == pinned_header, (
        f"digests pinned under '{pinned_header}' cannot be compared under "
        f"'{header}'; rewrite {PINNED.name} with {TOOL.name} on a tree "
        f"whose artifacts are trusted")
    differ = [run for run in {**pinned, **runs}
              if pinned.get(run) != runs.get(run)]
    assert not differ, f"runs whose artifacts differ: {differ}"
    assert list(runs) == list(pinned)
