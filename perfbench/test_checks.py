"""Tests of the benchmark's own output checks.

Each check must pass on a real, uncorrupted result and fail once the
result is corrupted: a flipped relevance float, a dropped CRAWL row, a
removed query row, a job that stops short.  A check handed nothing to
compare must fail too.  Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import os
import struct
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import monitoring  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402
from repro import CrawlMonitor, Database, FocusConfig, FocusSystem  # noqa: E402
from repro.crawler.focused import CrawlerConfig  # noqa: E402
from repro.experiments.workloads import CYCLING, crawl_web_config  # noqa: E402
from repro.minidb.testing import hard_close  # noqa: E402
from repro.webgraph.graph import SyntheticWebBuilder  # noqa: E402

PAGES = 400


def flip_low_bit(value: float) -> float:
    """The float one unit in the last place away: a corruption only bit equality sees."""
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


@pytest.fixture(scope="module")
def web():
    return SyntheticWebBuilder(crawl_web_config(seed=3, scale=0.2)).build()


def small_system(web, **crawler):
    config = FocusConfig(
        good_topics=(CYCLING,),
        crawler=CrawlerConfig(max_pages=PAGES, batch_size=32, score_backend="numpy", **crawler),
    )
    system = FocusSystem.from_web(web, [CYCLING], config)
    system.train()
    return system


@pytest.fixture(scope="module")
def crawled(web):
    """A small live crawl with one monitoring pass taken after the first distillation."""
    system = small_system(web)
    handle = system.start()
    while handle.pages_fetched < 250:
        handle.step()
    subtree_root = system.taxonomy.by_path("recreation").cid
    snapshot = monitoring.Snapshot(handle.database, handle.trace.visits)
    root, probes = monitoring.choose_probes(snapshot)
    results = monitoring.run_pass(
        handle.database, CrawlMonitor(handle.database), subtree_root, root, probes,
        tracing.Tracer(),
    )
    answers = {name: answer for name, answer, _ in results}
    expected = monitoring.expected_answers(
        snapshot, subtree_root, root, probes, answers["hub_percentile"]
    )
    handle.run()
    return {
        "pass": [(name, answers[name], expected[name]) for name in answers],
        "visits": [(v.url, v.relevance) for v in handle.trace.visits],
        "web_topics": {url: page.topic_path for url, page in web.pages.items()},
    }


# -- crawl ------------------------------------------------------------------------------


def test_monitoring_pass_agrees_with_own_computation(crawled):
    assert checks.check_monitoring([crawled["pass"]], monitoring.QUERIES) == len(monitoring.QUERIES)


def test_undistilled_pass_is_checked_on_its_own_queries(crawled):
    undistilled = [(name, actual, expected) for name, actual, expected in crawled["pass"]
                   if name in monitoring.UNDISTILLED_QUERIES]
    assert checks.check_monitoring([undistilled], monitoring.UNDISTILLED_QUERIES) == len(
        monitoring.UNDISTILLED_QUERIES)
    emptied = [(name, [] if name == "crawl_link_join" else actual, expected)
               for name, actual, expected in undistilled]
    with pytest.raises(CheckFailed):
        checks.check_monitoring([emptied], monitoring.UNDISTILLED_QUERIES)


@pytest.mark.parametrize("query", ["reachable_from", "crawl_link_join", "missed_hub_neighbours",
                                   "topic_census", "harvest_by_bucket"])
def test_removed_query_row_fails(crawled, query):
    corrupted = copy.deepcopy(crawled["pass"])
    for position, (name, actual, expected) in enumerate(corrupted):
        if name == query:
            assert actual, f"{query} returned no row to remove"
            corrupted[position] = (name, actual[:-1], expected)
    with pytest.raises(CheckFailed):
        checks.check_monitoring([corrupted], monitoring.QUERIES)


def test_flipped_aggregate_fails(crawled):
    corrupted = copy.deepcopy(crawled["pass"])
    for position, (name, actual, expected) in enumerate(corrupted):
        if name == "recent_relevance":
            corrupted[position] = (name, actual * 1.001, expected)
    with pytest.raises(CheckFailed):
        checks.check_monitoring([corrupted], monitoring.QUERIES)


def test_pass_without_rows_tests_nothing(crawled):
    empty = [(name, [] if isinstance(actual, list) else actual,
              [] if isinstance(expected, list) else expected)
             for name, actual, expected in crawled["pass"]]
    with pytest.raises(CheckFailed, match="no row in any pass"):
        checks.check_monitoring([empty], monitoring.QUERIES)
    with pytest.raises(CheckFailed):
        checks.check_monitoring([], monitoring.QUERIES)


def test_focus_check(crawled):
    urls = [url for url, _ in crawled["visits"]]
    visited_share, web_share = checks.check_focus(crawled["web_topics"], CYCLING, urls)
    assert visited_share >= 2 * web_share > 0
    with pytest.raises(CheckFailed, match="twice"):
        checks.check_focus(crawled["web_topics"], CYCLING, [
            url for url in crawled["web_topics"] if CYCLING not in crawled["web_topics"][url]
        ][:len(urls)])
    with pytest.raises(CheckFailed, match="visited twice"):
        checks.check_focus(crawled["web_topics"], CYCLING, urls + urls[:1])
    with pytest.raises(CheckFailed, match="not pages of the web"):
        checks.check_focus(crawled["web_topics"], CYCLING, urls + ["http://nowhere.example/"])
    with pytest.raises(CheckFailed):
        checks.check_focus(crawled["web_topics"], CYCLING, [])


# -- durable ------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def durable(web, tmp_path_factory):
    """A small durable crawl, killed, resumed, finished and hard-closed."""
    directory = str(tmp_path_factory.mktemp("durable") / "crawl")
    system = small_system(web, checkpoint_every=100)
    handle = system.start(checkpoint_dir=directory)
    while handle.pages_fetched < PAGES // 2:
        handle.step()
    hard_close(handle.database)
    handle = system.resume(directory)
    handle.run()
    visits = [(v.url, v.relevance) for v in handle.trace.visits]
    hard_close(handle.database)
    database = Database.open(directory)
    try:
        stored = database.sql("select url, relevance from CRAWL where status = 'visited'")
    finally:
        database.close()
    return {"visits": visits, "stored": stored}


def test_resumed_crawl_matches_uninterrupted(durable, crawled):
    checks.check_same_crawl(durable["visits"], crawled["visits"], "resumed")


def test_flipped_relevance_fails(durable):
    reference = list(durable["visits"])
    corrupted = list(reference)
    url, relevance = corrupted[len(corrupted) // 2]
    corrupted[len(corrupted) // 2] = (url, flip_low_bit(relevance))
    with pytest.raises(CheckFailed, match="relevance"):
        checks.check_same_crawl(corrupted, reference, "flipped")
    with pytest.raises(CheckFailed):
        checks.check_same_crawl(reference, [], "empty reference")


def test_readback_holds_every_acknowledged_visit(durable):
    checks.check_readback(durable["stored"], durable["visits"])


def test_dropped_crawl_row_fails(durable):
    with pytest.raises(CheckFailed, match="lost"):
        checks.check_readback(durable["stored"][1:], durable["visits"])


def test_flipped_stored_float_fails(durable):
    stored = [dict(row) for row in durable["stored"]]
    stored[0]["relevance"] = flip_low_bit(stored[0]["relevance"])
    with pytest.raises(CheckFailed, match="read back"):
        checks.check_readback(stored, durable["visits"])
    with pytest.raises(CheckFailed):
        checks.check_readback(durable["stored"], [])


# -- service -------------------------------------------------------------------------------


def job(job_id: str, pages: int, status: str = "completed") -> dict:
    return {"id": job_id, "status": status, "pages_fetched": pages,
            "visits": [(f"http://x/{i}", 0.5) for i in range(pages)]}


def test_jobs_check():
    checks.check_jobs([job("a", 150), job("b", 150)], 150, 2)


def test_job_that_stops_short_fails():
    with pytest.raises(CheckFailed, match="fetched 149 of 150"):
        checks.check_jobs([job("a", 150), job("b", 149)], 150, 2)
    with pytest.raises(CheckFailed, match="ended cancelled"):
        checks.check_jobs([job("a", 150, "cancelled")], 150, 1)
    with pytest.raises(CheckFailed, match="jobs ran"):
        checks.check_jobs([job("a", 150)], 150, 2)
    with pytest.raises(CheckFailed):
        checks.check_jobs([], 150, 0)


# -- tracing --------------------------------------------------------------------------------


def test_self_times_add_up_to_the_window(web):
    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    try:
        tracer.open()
        small_system(web).start().run()
        tracer.close()
    finally:
        tracer.uninstall()
    assert tracer.counts["fetch.attempts"] >= PAGES
    assert tracer.self_s["classify.busy_s"] > 0
    covered = sum(tracer.self_s.values()) + tracer.residual_s()
    assert covered == pytest.approx(tracer.window_s, abs=1e-9)
    assert 0 <= tracer.residual_s() < tracer.window_s
