"""The paper's Section VII claims at SF 0.05, checked on ratios from one run.

    PYTHONPATH=src python3 -m pytest perfbench/test_paper_claims.py -q

Runs each Fig. 9 query (3, 10, 15, 16, B17, 18, 20, 21) with the lazy plan
under engine defaults and with the MystiQ-style safe plan, interleaved,
``REPEATS`` times each (about 35 s per MystiQ pass at SF 0.05), then
asserts on the median times:

* the lazy plan beats MystiQ on every query (Fig. 9);
* confidence computation is a small share of the lazy mix: summed
  ``prob_seconds`` over summed plan time stays under ``CONF_SHARE_BOUND``.

Both claims compare times taken in the same run, never absolute seconds.
This is the benchmark's own test: it is not part of the timed workloads and
the default test run (``testpaths = tests``) does not collect it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Interleaved repetitions per query and plan; the claims use the medians.
#: Query 15 is the close one (about 1.2x at SF 0.05 with row execution; the
#: paper measured MystiQ slightly ahead there at SF 1), so single timings
#: on a noisy machine can flip it.
REPEATS = 3

#: Upper bound on the lazy mix's aggregate confidence share.  Measured at
#: 5% with row execution; Fig. 9's lazy plans spend most time on tuples.
CONF_SHARE_BOUND = 0.25


@pytest.fixture(scope="module")
def timings():
    error = common.ensure_checkout()
    if error is not None:
        pytest.fail(error)
    saved = {name: value for name, value in os.environ.items() if name.startswith("REPRO_")}
    common.clear_repro_env()
    try:
        from repro import MystiqEngine, SproutEngine
        from repro.tpch import FIGURE9_KEYS, tpch_query

        database = common.build_database()
        engine = SproutEngine(database)
        mystiq = MystiqEngine(database, use_log_aggregation=True, materialize_temporaries=True)
        rows = {}
        for key in FIGURE9_KEYS:
            query = tpch_query(key).query
            lazy_times, mystiq_times, lazy = [], [], None
            for _ in range(REPEATS):
                common.settle()
                started = perf_counter()
                lazy = engine.evaluate(query)
                lazy_times.append(perf_counter() - started)
                common.settle()
                started = perf_counter()
                mystiq.evaluate(query)
                mystiq_times.append(perf_counter() - started)
            rows[key] = (
                common.median(lazy_times), common.median(mystiq_times),
                lazy.tuples_seconds, lazy.prob_seconds,
            )
        return rows
    finally:
        os.environ.update(saved)


def test_lazy_beats_mystiq_on_every_fig9_query(timings):
    report = {key: round(mystiq / lazy, 2) for key, (lazy, mystiq, _, _) in timings.items()}
    slower = [key for key, (lazy, mystiq, _, _) in timings.items() if lazy >= mystiq]
    assert not slower, f"lazy not faster than MystiQ on {slower}; speed-ups {report}"


def test_confidence_is_a_small_share_of_lazy_time(timings):
    tuples = sum(row[2] for row in timings.values())
    prob = sum(row[3] for row in timings.values())
    share = prob / (tuples + prob)
    assert share < CONF_SHARE_BOUND, f"confidence share {share:.3f} of the lazy mix"
