"""Print fleet fingerprints to pin in ``oracle.FLEET_PINS``.

Usage, from the root of a checkout::

    python3 perfbench/pin_fleet.py 0 31

runs one serial round of the default fleet workload for each seed in the
inclusive range and prints the dictionary entries.  Re-pin only when a
change is meant to alter fleet behaviour, and say so where it lands.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main(argv) -> int:
    first, last = (int(a) for a in argv)
    for seed in range(first, last + 1):
        wl = workloads.FleetEpoch(seed)
        wl.pin = None
        result = wl.run(budget=1)
        if result.failed:
            print(f"seed {seed} failed: {result.notes}", file=sys.stderr)
            return 1
        print(f"    {seed}: \"{wl.fingerprints[0]}\",")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
