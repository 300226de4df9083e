"""Run one benchmark workload and print its metrics.

Usage, from the checkout root::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures them too, then repeats the workload once with the
per-layer probes and spans on, and reports the per-layer metrics plus the
traced-vs-untraced overhead.  The last stdout line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is 1
when an output check failed and 2 when the checkout cannot run at all.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    Report, SetupError, import_seconds, load_contract, record, use_checkout,
)

WORKLOADS = ("analyze", "explore-dt-large", "serve-analyze")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs (for the benchmark's own tests, not for numbers)",
    )
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this run's output digest as the default-seed digest",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        contract = load_contract()
        use_checkout()
        if args.workload == "analyze":
            from perfbench import wl_analyze as workload
        elif args.workload == "explore-dt-large":
            from perfbench import wl_explore as workload
        else:
            from perfbench import wl_serve as workload
    except (SetupError, ImportError) as error:
        print(f"perfbench: cannot run: {error}", file=sys.stderr)
        return 2
    import_s = import_seconds()

    report = Report(args.workload, args.seed, args.seconds, bool(args.trace))
    report.recording = args.record_digests
    report.speed.sample()
    workload.run(args, report, contract, import_s)
    if report.recording and report.correct and report.digest:
        record("digests", {args.workload: report.digest})
    return report.finish(contract)


if __name__ == "__main__":
    sys.exit(main())
