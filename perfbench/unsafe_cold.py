"""``unsafe_cold``: top-k and threshold decisions from a cold cache.

The non-hierarchical query ``part ⋈ partsupp ⋈ supplier`` grouped by one
part attribute: ``p_container`` (7 candidates), ``p_brand`` (25),
``p_size`` (50) or ``p_type`` (150), with ``ps_availqty`` below 1500, 3000
or 6000 (about 6k, 12k and 24k answer rows).  Every request starts from a
cold lineage cache through the public ``SproutEngine.close()``, standing in
for a working set larger than the cache; planner statistics survive it and
count as set-up.  Compilation and refinement dominate; materialisation
matters little.  The ``p_container`` request decides in 0 steps, so it is
pure compilation.

The mix is fixed so that every seed measures the same work: the seed only
orders the requests of each pass, and cold requests do not depend on order.
Each τ lies inside its candidates' confidence spread at SF 0.05 (τ = 0.9
would select every candidate).
"""

from __future__ import annotations

import closed_loop
import tracing

SQL = "SELECT {head}, conf() FROM part, partsupp, supplier WHERE ps_availqty < {cut}"

#: (kind, head attribute, availqty cut, k or τ); no request dominates a pass.
MIX = [
    ("topk", "p_container", 1500, 3),
    ("topk", "p_brand", 3000, 10),
    ("topk", "p_size", 1500, 5),
    ("threshold", "p_type", 1500, 0.995),
    ("topk", "p_type", 3000, 3),
    ("threshold", "p_size", 1500, 0.9999995),
    ("topk", "p_type", 6000, 3),
]

#: Widest bracket an exact-mode winner may report.
EXACT_WIDTH = 1e-12


def _call(kind, sql, argument):
    def call(engine):
        import repro.query.parser as parser

        query = parser.parse_query(sql, engine.database.catalog, name="unsafe").query
        if kind == "topk":
            return engine.evaluate_topk(query, k=argument)
        return engine.evaluate_threshold(query, tau=argument)

    return call


def _check(kind, argument):
    def check(engine, answer):
        if not answer.decided:
            return "the answer set was not decided"
        selected = set(answer.confidences())
        lowers = [answer.bounds[data][0] for data in selected]
        uppers = [bounds[1] for data, bounds in answer.bounds.items() if data not in selected]
        if kind == "topk" and len(selected) != min(argument, len(answer.bounds)):
            return f"{len(selected)} tuples selected for k={argument}"
        if kind == "threshold" and (
            any(lower < argument for lower in lowers)
            or any(upper >= argument for upper in uppers)
        ):
            return f"a bracket falls on the wrong side of tau={argument}"
        if lowers and uppers and min(lowers) < max(uppers):
            return "a selected lower bound is below an excluded upper bound"
        widest = max((answer.bounds[data][1] - answer.bounds[data][0] for data in selected),
                     default=0.0)
        if widest > EXACT_WIDTH:
            return f"an exact-mode winner has bracket width {widest:.3g}"
        return None

    return check


def _required(execution):
    route = tracing.ROUTE_ENTRIES[execution]
    return [
        "TracedEngine.evaluate_topk", "TracedEngine.evaluate_threshold", "parse_query",
        "SproutEngine.is_tractable", *route["answer"], *route["lineage"],
        "dtrees_from_dnfs", "run_decision", "finish_selected",
        "SharedLineageStore.refine_round", "NodeTable.propagate_from_many",
    ]


def workload() -> closed_loop.ClosedWorkload:
    mix = []
    for kind, head, cut, argument in MIX:
        sql = SQL.format(head=head, cut=cut)
        mix.append(closed_loop.Request(
            label=f"{kind} {head}<{cut} {argument}",
            call=_call(kind, sql, argument),
            check=_check(kind, argument),
        ))
    warm = _call("topk", SQL.format(head="p_container", cut=300), 3)
    return closed_loop.ClosedWorkload(
        name="unsafe_cold",
        mix=mix,
        warmup=warm,
        cold=True,
        required=_required,
    )
