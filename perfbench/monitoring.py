"""The monitoring pass every workload runs, and its independent answers.

A pass is what an operator watching a crawl would run: the paper's SQL
from :class:`repro.CrawlMonitor` (harvest by bucket, topic census,
subtree census, frontier and visited counts, recent relevance, the hub
percentile psi and the hubs' missed neighbours) plus two graph queries
through ``Database.sql``: ``reachable_from`` one recently visited page,
and a selective CRAWL x LINK join.  A crawl that has not distilled yet
has no hub scores, so its pass leaves out the two hub queries
(:data:`UNDISTILLED_QUERIES`).

Every query is one operation.  Its answer is kept beside an *expected*
answer that this module computes with its own code from the crawl trace
and from raw table rows read at the same crawl state, so the program's
query layer never grades itself.  :func:`checks.check_monitoring`
compares the two after the crawl's timed window.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict, deque
from typing import Dict, List, Sequence, Tuple

#: Harvest-plot bucket width in crawl ticks (the paper buckets by minute).
BUCKET_TICKS = 100
#: "Recent" window of the recent-relevance query, in ticks.
RECENT_TICKS = 200
#: Percentile of HUBS scores used as the hub threshold psi (the paper's).
HUB_PERCENTILE = 0.9
#: Recently visited pages probed by the selective join.
JOIN_PROBES = 12
#: The queries of a full pass, in the order they run (each is one operation).
QUERIES = ("harvest_by_bucket", "topic_census", "subtree_census", "frontier_size",
           "visited_count", "recent_relevance", "hub_percentile", "missed_hub_neighbours",
           "reachable_from", "crawl_link_join")
#: The pass over a crawl too short to have distilled (no HUBS rows yet).
UNDISTILLED_QUERIES = tuple(
    name for name in QUERIES if name not in ("hub_percentile", "missed_hub_neighbours")
)

REACH_SQL = "select oid from CRAWL where reachable_from(oid, :root, 'link_graph')"


def join_sql(count: int) -> str:
    keys = ", ".join(f":k{i}" for i in range(count))
    return (
        "select C.oid src, C.relevance relevance, L.oid_dst dst from CRAWL C, LINK L "
        f"where C.oid = L.oid_src and C.oid in ({keys})"
    )


class Snapshot:
    """Raw rows of the crawl tables plus the trace prefix, at one crawl state."""

    def __init__(self, database, visits: Sequence) -> None:
        self.visits = list(visits)
        self.crawl = list(database.table("CRAWL").rows_as_dicts())
        link = database.table("LINK")
        names = link.schema.column_names
        src, dst = names.index("oid_src"), names.index("oid_dst")
        ssrc, sdst = names.index("sid_src"), names.index("sid_dst")
        self.links = [(r[src], r[dst], r[ssrc], r[sdst]) for r in link.rows()]
        self.hubs = [(row["oid"], row["score"]) for row in database.table("HUBS").rows_as_dicts()]
        self.taxonomy = list(database.table("TAXONOMY").rows_as_dicts())


def choose_probes(snapshot: Snapshot, age: int = 0) -> Tuple[int, List[int]]:
    """The reachability root and the join's probe oids (the newest visited pages).

    The root is the visited page *age* visits before the newest one.
    """
    visited = sorted(
        (row for row in snapshot.crawl if row["status"] == "visited"),
        key=lambda row: row["lastvisited"],
    )
    if not visited:
        raise ValueError("a monitoring pass needs at least one visited page")
    recent = [row["oid"] for row in visited[-JOIN_PROBES:]]
    return visited[-1 - age]["oid"], sorted(recent)


def run_pass(database, monitor, subtree_root: int, root: int, probes: List[int],
             tracer, names: Sequence[str] = QUERIES) -> List[Tuple[str, object, float]]:
    """Run the queries *names*; returns ``(name, answer, seconds)`` per query that succeeded.

    A query that raises is left out of the list: the caller counts it
    as a failed operation.  Each query is one ``query.busy_s`` span.
    """
    results = []

    def timed(name, call):
        if name not in names:
            return None
        reads = database.io_snapshot()["logical_reads"]
        try:
            with tracer.span("query.busy_s"):
                started = time.perf_counter()
                answer = call()
                seconds = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            print(f"query {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        tracer.count("query.count")
        tracer.count("query.rows_returned", len(answer) if isinstance(answer, list) else 1)
        tracer.count("query.logical_reads", database.io_snapshot()["logical_reads"] - reads)
        results.append((name, answer, seconds))
        return answer

    timed("harvest_by_bucket", lambda: monitor.harvest_rate_by_bucket(BUCKET_TICKS))
    timed("topic_census", monitor.topic_census)
    timed("subtree_census", lambda: monitor.subtree_census(subtree_root))
    timed("frontier_size", monitor.frontier_size)
    timed("visited_count", monitor.visited_count)
    timed("recent_relevance", lambda: monitor.average_relevance(RECENT_TICKS))
    psi = timed("hub_percentile", lambda: monitor.hub_score_percentile(HUB_PERCENTILE))
    timed("missed_hub_neighbours", lambda: monitor.missed_hub_neighbours(psi))
    timed("reachable_from", lambda: database.sql(REACH_SQL, {"root": root}))
    params = {f"k{i}": oid for i, oid in enumerate(probes)}
    timed("crawl_link_join", lambda: database.sql(join_sql(len(probes)), params))
    return results


# -- the benchmark's own answers ---------------------------------------------------


def expected_answers(snapshot: Snapshot, subtree_root: int, root: int,
                     probes: List[int], psi: float) -> Dict[str, object]:
    """Every query's answer, computed from the snapshot without the query layer.

    *psi* is the program's hub-percentile answer (None when that query
    failed); it is checked on its own and then reused, so the
    missed-neighbour check compares the same question.
    """
    visits = snapshot.visits
    names = {row["kcid"]: row["name"] for row in snapshot.taxonomy}

    buckets: Dict[int, List[float]] = defaultdict(list)
    for visit in visits:
        buckets[visit.tick // BUCKET_TICKS].append(visit.relevance)
    harvest = [
        {"bucket": bucket, "avg_relevance": math.fsum(vals) / len(vals), "pages": len(vals)}
        for bucket, vals in sorted(buckets.items())
    ]

    census_counts: Dict[int, int] = defaultdict(int)
    for visit in visits:
        if visit.best_leaf_cid in names:
            census_counts[visit.best_leaf_cid] += 1
    census = [
        {"kcid": kcid, "cnt": count, "name": names[kcid]}
        for kcid, count in census_counts.items()
    ]

    children: Dict[int, List[int]] = defaultdict(list)
    for row in snapshot.taxonomy:
        children[row["pcid"]].append(row["kcid"])
    subtree = _closure(children, subtree_root)
    in_subtree = [v.relevance for v in visits if v.best_leaf_cid in subtree]
    subtree_answer = {
        "root_kcid": subtree_root,
        "pages": len(in_subtree),
        "avg_relevance": math.fsum(in_subtree) / len(in_subtree) if in_subtree else None,
    }

    horizon = max(v.tick for v in visits)
    recent = [v.relevance for v in visits if v.tick > horizon - RECENT_TICKS]

    scores = sorted(score for _, score in snapshot.hubs if score is not None)
    percentile = scores[min(int(HUB_PERCENTILE * len(scores)), len(scores) - 1)] if scores else 0.0

    if psi is None:
        psi = percentile
    strong_hubs = {oid for oid, score in snapshot.hubs if score is not None and score > psi}
    cited = {dst for src, dst, ssrc, sdst in snapshot.links
             if src in strong_hubs and ssrc != sdst}
    missed = [
        {"url": row["url"], "relevance": row["relevance"]}
        for row in snapshot.crawl
        if row["oid"] in cited and row["numtries"] == 0
    ]

    out_edges: Dict[int, List[int]] = defaultdict(list)
    for src, dst, _, _ in snapshot.links:
        out_edges[src].append(dst)
    reached = _closure(out_edges, root)
    known = {row["oid"] for row in snapshot.crawl}
    reach = [{"oid": oid} for oid in reached if oid in known]

    # The selective join as a plain nested loop over both row lists.
    probe_set = set(probes)
    join = []
    for crawl_row in snapshot.crawl:
        if crawl_row["oid"] not in probe_set:
            continue
        for src, dst, _, _ in snapshot.links:
            if src == crawl_row["oid"]:
                join.append({"src": src, "relevance": crawl_row["relevance"], "dst": dst})

    return {
        "harvest_by_bucket": harvest,
        "topic_census": census,
        "subtree_census": subtree_answer,
        "frontier_size": sum(1 for row in snapshot.crawl if row["status"] == "frontier"),
        "visited_count": len(visits),
        "recent_relevance": math.fsum(recent) / len(recent),
        "hub_percentile": percentile,
        "missed_hub_neighbours": missed,
        "reachable_from": reach,
        "crawl_link_join": join,
    }


def _closure(edges: Dict[int, List[int]], start: int) -> set:
    """Every node reachable from *start* over *edges*, *start* included (BFS)."""
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen
