"""Time one batch's set-up in a fresh interpreter: import shelfpick, parse
the batch config and generate the first scene, up to the first trial.

Usage: python3 setup_probe.py <src dir> <batch config>; prints seconds.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from shelfpick import cli  # noqa: E402


class FirstTrial(Exception):
    pass


def first_trial(*args, **kwargs):
    raise FirstTrial


cli.run_pick = first_trial
try:
    cli.main(["batch", sys.argv[2]])
except FirstTrial:
    print(time.perf_counter() - t0)
else:
    sys.exit("setup_probe: the batch ran no trial")
