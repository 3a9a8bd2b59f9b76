"""Set-up probe: a fresh interpreter imports oscpurity and parses the
workload's configs, then prints "ready". run.py times this from process
start to that line.

Usage: python3 setup_probe.py <src dir> <config list file>
where each line of the list file is "<scenario|sweep>\t<path>".
"""

import sys

sys.path.insert(0, sys.argv[1])

from oscpurity import cli  # noqa: E402  (the import is what is timed)
from oscpurity.model import parse_config  # noqa: E402

with open(sys.argv[2]) as listing:
    for line in listing:
        kind, path = line.rstrip("\n").split("\t")
        with open(path) as f:
            text = f.read()
        (cli.parse_sweep_spec if kind == "sweep" else parse_config)(text)
sys.stdout.write("ready\n")
sys.stdout.flush()
