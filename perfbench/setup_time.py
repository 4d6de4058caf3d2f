"""Set-up time of a fresh interpreter: import the CLI and load one config.

Usage: python3 perfbench/setup_time.py CONFIG  (with src on PYTHONPATH).
Prints the seconds from the start of this script, less the speed probe's
own samples, and the mean probe sample, as one JSON line.
"""

import json
import os
import statistics
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import REF_SAMPLE_S, SpeedProbe  # noqa: E402

with SpeedProbe() as probe:
    import reeb_atlas.cli as cli

    cli.load_config(sys.argv[1])
seconds = time.perf_counter() - t0 - probe.spent
print(json.dumps({"seconds": seconds,
                  "sample": statistics.mean(probe.samples or [REF_SAMPLE_S])}))
