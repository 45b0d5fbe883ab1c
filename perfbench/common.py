"""Pieces every workload shares: the data set, statistics, provenance, the
cross-run counter ledger, and the result every run prints.

The benchmark drives the public ``repro`` API of the checkout it sits in
(``<checkout>/src``) and never changes anything under ``src/``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Probabilistic TPC-H instance every workload runs on: scale factor,
#: datagen seed and probability seed.  Fixed; the workload seed only shapes
#: the request stream.
SCALE_FACTOR = 0.05
DATA_SEED = 7
PROBABILITY_SEED = 11

CHECKOUT = Path(__file__).resolve().parents[1]
SRC = CHECKOUT / "src"
#: Run-time state (counter ledger, span dumps, server log); git-ignored.
STATE_DIR = CHECKOUT / ".perfbench_state"


def clear_repro_env() -> None:
    """Drop every ``REPRO_*`` variable so engine and service defaults run."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def build_database():
    from repro.tpch import probabilistic_tpch

    return probabilistic_tpch(
        scale_factor=SCALE_FACTOR, seed=DATA_SEED, probability_seed=PROBABILITY_SEED
    )


def settle() -> None:
    """Collect garbage outside the timed window."""
    gc.collect()


def freeze_heap() -> None:
    """Move the set-up heap (the TPC-H data) out of later collections."""
    gc.collect()
    gc.freeze()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def provenance(engine, workload: str, seed: int) -> Dict[str, object]:
    """The defaults that actually ran, plus interpreter and machine facts."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "scale_factor": SCALE_FACTOR,
        "data_seed": DATA_SEED,
        "probability_seed": PROBABILITY_SEED,
        "execution": engine.execution,
        "backend": engine.backend,
        "workers": engine.workers,
        "refine_lanes": engine.refine_lanes,
        "shared_lineage": engine.shared_lineage,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


@dataclass
class RunResult:
    """What one run prints: the verdict, the metrics, and report lines."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def fail(self, reason: str) -> None:
        self.correct = False
        self.report.append(f"CHECK FAILED: {reason}")

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


def code_digest() -> str:
    """Short sha256 over the source of the engine and of the benchmark."""
    digest = hashlib.sha256()
    for root in (SRC / "repro", Path(__file__).resolve().parent):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(CHECKOUT)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_counters(result: RunResult, key: str, counters: Dict[str, object]) -> None:
    """Deterministic counters must repeat exactly between runs of one seed.

    The first run of ``key`` on a given source (``code_digest``) records its
    counters; every later run with the same key on the same source must
    reproduce them bit for bit, or the run fails.  Changed code starts a new
    record, so an intended change of a counter is not taken for a wrong
    answer.
    """
    STATE_DIR.mkdir(exist_ok=True)
    key = f"{key}-code{code_digest()}"
    path = STATE_DIR / f"counters-{key}.json"
    encoded = json.loads(json.dumps(counters, sort_keys=True))
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != encoded:
            differing = sorted(
                name
                for name in set(recorded) | set(encoded)
                if recorded.get(name) != encoded.get(name)
            )
            result.fail(f"deterministic counters differ from an earlier run of {key}: "
                        f"{differing[:5]}")
        else:
            result.report.append(f"counters match the earlier run of {key}")
        return
    path.write_text(json.dumps(encoded, sort_keys=True))
    result.report.append(f"counters of {key} recorded")


def ensure_checkout() -> Optional[str]:
    """Put ``<checkout>/src`` first on ``sys.path``; an error text if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no repro package under {SRC}; run from a full checkout"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return None
