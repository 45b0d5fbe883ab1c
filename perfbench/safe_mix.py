"""``safe_mix``: the Fig. 9 lazy plans, closed loop, one client.

Repeated passes over TPC-H queries 3, 10, 15, 16, B17, 18, 20 and 21 via
``SproutEngine.evaluate`` with every default: answer materialisation plus
the scan-based confidence operator, the paper's headline path.  Lineage,
the shared DAG and refinement are bypassed, so a compile or refine change
must show no change here.  Answers run from 0 rows (Q20) to 27,980 rows
(Q3) at SF 0.05.

Each query's confidences are checked, outside the timed window, against
the d-tree plan of the same engine: lineage compiled to decomposition
trees instead of the scan operator.
"""

from __future__ import annotations

import closed_loop
import tracing

#: Largest confidence difference the check accepts between the two routes.
CONFIDENCE_TOLERANCE = 1e-9


def _check(query):
    def check(engine, answer):
        reference = engine.evaluate(query, plan="dtree", execution="batch").confidences()
        got = answer.confidences()
        if set(got) != set(reference):
            return f"answer tuples differ from the d-tree plan ({len(got)} vs {len(reference)})"
        worst = max((abs(got[key] - reference[key]) for key in got), default=0.0)
        if worst > CONFIDENCE_TOLERANCE:
            return f"confidence differs from the d-tree plan by {worst:.3g}"
        return None

    return check


def _required(execution):
    route = tracing.ROUTE_ENTRIES[execution]
    return [
        "TracedEngine.evaluate", "SproutEngine.is_tractable", "SproutEngine.signature_for",
        *route["answer"], *route["sort"], "compute_answer_confidences",
    ]


def workload() -> closed_loop.ClosedWorkload:
    from repro.tpch import FIGURE9_KEYS, tpch_query

    mix = []
    for key in FIGURE9_KEYS:
        query = tpch_query(key).query
        mix.append(closed_loop.Request(
            label=f"Q{key}",
            call=lambda engine, query=query: engine.evaluate(query),
            check=_check(query),
        ))
    warm = tpch_query("16").query
    return closed_loop.ClosedWorkload(
        name="safe_mix",
        mix=mix,
        warmup=lambda engine: engine.evaluate(warm),
        cold=False,
        required=_required,
    )
