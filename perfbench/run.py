"""The repository benchmark: one command, one JSON line per run.

    python3 perfbench/run.py --workload unsafe_cold --seed 1 --seconds 34 --trace 0

Runs a workload against the public ``repro`` API of this checkout on
probabilistic TPC-H at SF 0.05 (datagen seed 7, probability seed 11), with
every ``REPRO_*`` variable cleared so engine and service defaults run.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that wraps each layer's public entry points in span
recorders and prints the per-layer metrics.  Report lines (provenance,
sample counts, checks) come first; the last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads are described in ``safe_mix.py``, ``unsafe_cold.py`` and
``service_mixed.py``; the paper-claims check is ``test_paper_claims.py``.
The closed-loop workloads report their times at a reference host speed
measured by a calibration probe (``hostspeed.py``).
``BENCHMARK.json`` gates ``unsafe_cold`` and ``service_mixed``.  ``safe_mix``
runs the same way but is not gated: on a shared 2-core machine its
run-to-run spread exceeded the bounds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("safe_mix", "unsafe_cold", "service_mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    error = common.ensure_checkout()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    common.clear_repro_env()

    if args.workload == "service_mixed":
        import service_mixed

        result = service_mixed.run(args.seed, args.seconds, bool(args.trace))
    else:
        import closed_loop
        import tracing
        from repro import SproutEngine

        module = __import__(args.workload)
        engine_class = tracing.engine_class() if args.trace else SproutEngine
        result = closed_loop.run(
            module.workload(), args.seed, args.seconds, bool(args.trace), engine_class
        )
    for line in result.report:
        print(line)
    print(result.line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
