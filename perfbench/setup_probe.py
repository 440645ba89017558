"""Child process behind the ``setup_s`` metric.

Times one fresh interpreter from before ``import repro`` to a workload
that is ready to run (every part's ``Scenario`` built, ``cluster()``
and ``requests()`` returned), between two calibrations, and prints
``{"setup_s": ..., "ref_setup_s": ..., "requests": ...}`` as one JSON
line.  ``run.py`` starts it several times and reports the median of the
reference seconds::

    python3 perfbench/setup_probe.py --workload multi_tenant --seed 0
"""

import time

from calibrate import calibration_s, to_reference

_BEFORE = calibration_s()
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402, F401
from workloads import build, parts  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    requests = 0
    for offset, window in parts(args.workload, args.seed, args.scale):
        scenario = build(args.workload, offset, window)
        scenario.cluster()
        requests += len(scenario.requests())
    elapsed = time.perf_counter() - _START
    ref_s = to_reference(elapsed, _BEFORE, calibration_s())
    print(json.dumps({"setup_s": elapsed, "ref_setup_s": ref_s, "requests": requests}))


if __name__ == "__main__":
    main()
