"""Output checks, computed apart from the program after the timed window.

Each check raises :class:`CheckFailed` with a message naming what
differs.  A check that is handed nothing to compare fails too: an empty
crawl, an empty pass list or a job list with no jobs is not a pass.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Relative tolerance for aggregates the program and this module sum in a
#: different order (averages).  Stored floats are compared exactly.
AVG_TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- crawl --------------------------------------------------------------------------


def check_focus(web_topics: Mapping[str, str], good_topic: str,
                visited_urls: Sequence[str]) -> Tuple[float, float]:
    """Visited URLs are unique pages of the web, and the crawl stayed on topic.

    *web_topics* maps every page URL of the generated web to the topic
    path the generator gave it.  The share of visited pages inside the
    good topic's subtree must be at least twice that subtree's share of
    the whole web.  Returns ``(visited share, web share)``.
    """
    _require(len(visited_urls) > 0, "the crawl visited no page")
    _require(len(set(visited_urls)) == len(visited_urls), "a URL was visited twice")
    unknown = [url for url in visited_urls if url not in web_topics]
    _require(not unknown, f"{len(unknown)} visited URLs are not pages of the web, e.g. {unknown[:1]}")

    def on_topic(path: str) -> bool:
        return path == good_topic or path.startswith(good_topic + "/")

    web_share = sum(1 for path in web_topics.values() if on_topic(path)) / len(web_topics)
    crawl_share = sum(1 for url in visited_urls if on_topic(web_topics[url])) / len(visited_urls)
    _require(
        crawl_share >= 2 * web_share,
        f"on-topic share {crawl_share:.3f} is below twice the web's {web_share:.3f}",
    )
    return crawl_share, web_share


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(float(a), float(b), rel_tol=AVG_TOLERANCE, abs_tol=1e-12)


def _rows_key(rows: Iterable[Mapping]) -> List[tuple]:
    return sorted(tuple(sorted(row.items())) for row in rows)


def _compare(name: str, actual, expected) -> None:
    if name == "harvest_by_bucket":
        _require(len(actual) == len(expected), f"{name}: {len(actual)} buckets, expected {len(expected)}")
        for got, want in zip(actual, expected):
            _require(
                got["bucket"] == want["bucket"] and got["pages"] == want["pages"]
                and _close(got["avg_relevance"], want["avg_relevance"]),
                f"{name}: got {got}, expected {want}",
            )
    elif name == "topic_census":
        counts = [row["cnt"] for row in actual]
        _require(counts == sorted(counts, reverse=True), f"{name}: not ordered by count")
        _require(_rows_key(actual) == _rows_key(expected), f"{name}: rows differ")
    elif name == "subtree_census":
        _require(
            actual["root_kcid"] == expected["root_kcid"] and actual["pages"] == expected["pages"]
            and _close(actual["avg_relevance"], expected["avg_relevance"]),
            f"{name}: got {actual}, expected {expected}",
        )
    elif name in ("frontier_size", "visited_count", "hub_percentile"):
        _require(actual == expected, f"{name}: got {actual}, expected {expected}")
    elif name == "recent_relevance":
        _require(_close(actual, expected), f"{name}: got {actual}, expected {expected}")
    else:  # row sets without an ORDER BY
        _require(len(actual) == len(expected), f"{name}: {len(actual)} rows, expected {len(expected)}")
        _require(_rows_key(actual) == _rows_key(expected), f"{name}: rows differ")


#: Queries that return rows; across a crawl each must return some, or the
#: comparison of its rows would test nothing.
ROW_QUERIES = ("harvest_by_bucket", "topic_census", "missed_hub_neighbours",
               "reachable_from", "crawl_link_join")


def check_monitoring(passes: Sequence[Sequence[Tuple[str, object, object]]],
                     names: Sequence[str]) -> int:
    """Each pass is a list of ``(query name, answer, expected)``; returns queries checked.

    *names* are the queries the passes were meant to run; each of them
    that returns rows must return some in at least one pass.
    """
    _require(len(passes) > 0, "no monitoring pass ran")
    checked = 0
    nonempty: Dict[str, int] = {name: 0 for name in ROW_QUERIES if name in names}
    for answers in passes:
        _require(len(answers) > 0, "a monitoring pass ran no query")
        for name, actual, expected in answers:
            _compare(name, actual, expected)
            if name in nonempty and actual:
                nonempty[name] += 1
            checked += 1
    empty = sorted(name for name, count in nonempty.items() if count == 0)
    _require(not empty, f"queries {empty} returned no row in any pass")
    return checked


# -- durable ------------------------------------------------------------------------


def check_same_crawl(actual: Sequence[Tuple[str, float]],
                     reference: Sequence[Tuple[str, float]], what: str) -> None:
    """Two crawls visited the same pages in the same order with bit-equal floats."""
    _require(len(reference) > 0, f"{what}: the reference crawl visited no page")
    _require(len(actual) == len(reference), f"{what}: {len(actual)} visits, reference {len(reference)}")
    for index, (got, want) in enumerate(zip(actual, reference)):
        _require(got[0] == want[0], f"{what}: visit {index} is {got[0]}, reference {want[0]}")
        _require(
            got[1] == want[1],
            f"{what}: visit {index} ({got[0]}) relevance {got[1]!r}, reference {want[1]!r}",
        )


def check_readback(stored: Sequence[Mapping], acknowledged: Sequence[Tuple[str, float]]) -> None:
    """The reopened CRAWL table holds every acknowledged visit, float for float.

    *stored* are the reopened database's ``visited`` CRAWL rows
    (``url``, ``relevance``).
    """
    _require(len(acknowledged) > 0, "no acknowledged visit to read back")
    on_disk = {row["url"]: row["relevance"] for row in stored}
    _require(len(on_disk) == len(stored), "the reopened CRAWL table repeats a URL")
    missing = [url for url, _ in acknowledged if url not in on_disk]
    _require(not missing, f"{len(missing)} acknowledged visits were lost, e.g. {missing[:1]}")
    for url, relevance in acknowledged:
        _require(
            on_disk[url] == relevance,
            f"{url}: read back relevance {on_disk[url]!r}, acknowledged {relevance!r}",
        )
    _require(
        len(on_disk) == len(acknowledged),
        f"the reopened database holds {len(on_disk)} visits, {len(acknowledged)} acknowledged",
    )


# -- service ------------------------------------------------------------------------


def check_jobs(summaries: Sequence[Mapping], budget: int, expected_jobs: int) -> None:
    """Every job completed with its page budget met."""
    _require(expected_jobs > 0, "no job to check")
    _require(len(summaries) == expected_jobs, f"{len(summaries)} jobs ran, {expected_jobs} submitted")
    for summary in summaries:
        _require(
            summary["status"] == "completed",
            f"{summary['id']} ended {summary['status']}",
        )
        _require(
            summary["pages_fetched"] >= budget and len(summary["visits"]) >= budget,
            f"{summary['id']} fetched {summary['pages_fetched']} of {budget} pages",
        )
