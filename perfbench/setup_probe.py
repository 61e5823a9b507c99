"""Set-up time of one workload in a fresh interpreter.

Times importing ssimkit, resolving the workload's spec(s) and opening both
streams (or loading the manifest), stopping before the first frame is
decoded, and prints the seconds as its last line. Inputs must already exist:

    python3 perfbench/setup_probe.py --workload NAME --inputs DIR
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from inputs import input_paths
    from workloads import WORKLOADS

    WORKLOADS[args.workload].open(input_paths(args.workload, args.inputs))
    print(time.perf_counter() - _START)


if __name__ == "__main__":
    main()
