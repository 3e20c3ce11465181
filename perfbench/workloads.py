"""The benchmark's three workloads: ``crawl``, ``durable`` and ``service``.

Each workload is driven only through the program's public surface
(``FocusSystem.from_web/train/start/resume``, ``CrawlHandle.step``,
``JobManager.submit/step_once``, ``Database.sql``) with
``score_backend="numpy"``, ``batch_size=32``, user-level budgets and the
program's defaults for every other mode.  A run repeats whole *rounds*;
every round sets its system up afresh (one ``setup_s`` sample) and then
does the same operations, so rounds are interchangeable and the run
reports medians over them.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from typing import Dict, List

from repro import CrawlMonitor, CrawlerConfig, Database, FocusConfig, FocusSystem, JobManager, JobSpec
from repro.experiments.workloads import CYCLING, MUTUAL_FUNDS, crawl_web_config
from repro.minidb.testing import hard_close
from repro.webgraph.graph import SyntheticWebBuilder

import checks
import monitoring

#: Engine round size of every crawl (the K of the batched pipeline).
BATCH_SIZE = 32
#: Page budget of the ``crawl`` and ``durable`` crawls.
CRAWL_PAGES = 4000
#: ``crawl`` runs a monitoring pass every this many engine rounds,
#: ``durable`` (whose reads go through a small buffer pool) every this many.
PASS_EVERY_ROUNDS = 32
DURABLE_PASS_EVERY_ROUNDS = 48
#: Parent of the good topic: the root of the subtree census.
SUBTREE_ROOT = "recreation"
#: ``durable``: checkpoint cadence in pages, buffer pool in pages (the
#: crawl database grows to ~905 pages), and the page count after which
#: the crawl is killed.
CHECKPOINT_EVERY = 500
DURABLE_POOL_PAGES = 256
KILL_AFTER_PAGES = 2200
#: ``service``: jobs per round, pages per job, jobs kept in flight.
JOBS_PER_ROUND = 48
JOB_PAGES = 150
IN_FLIGHT = 4
TOPIC_SETS = ((CYCLING,), (MUTUAL_FUNDS,))
TERMINAL = ("completed", "exhausted", "cancelled", "failed")

#: ``Database.io_snapshot`` counters summed over a workload's databases.
IO_KEYS = ("wal_bytes_written", "wal_fsyncs", "pages_flushed", "physical_reads",
           "logical_reads", "evictions", "bytes_reclaimed")


def build_web(seed: int):
    """The workload generator: the ~10k-page crawl web for *seed* (untimed)."""
    return SyntheticWebBuilder(crawl_web_config(seed=seed, scale=1.0)).build()


def focus_config(topics, pages: int, buffer_pool_pages: int = 0, **crawler) -> FocusConfig:
    """The program's defaults plus the benchmark's budgets (0 keeps the default pool)."""
    config = FocusConfig(
        good_topics=tuple(topics),
        crawler=CrawlerConfig(
            max_pages=pages, batch_size=BATCH_SIZE, score_backend="numpy", **crawler
        ),
    )
    return config.copy_with(buffer_pool_pages=buffer_pool_pages) if buffer_pool_pages else config


def trained_system(web, topics, config: FocusConfig) -> FocusSystem:
    system = FocusSystem.from_web(web, list(topics), config)
    system.train()
    return system


def add_io(totals: Dict[str, float], snapshot: Dict[str, float]) -> None:
    for key in IO_KEYS:
        totals[key] = totals.get(key, 0.0) + snapshot[key]


def median(rounds: List[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


class Workload:
    """One workload: rounds inside the window, checks after it, then metrics."""

    def __init__(self, web, tracer, workdir: str) -> None:
        self.web = web
        self.tracer = tracer
        self.workdir = workdir
        self.io: Dict[str, float] = {}
        self.failed = 0
        self.problems: List[str] = []

    def verify(self, check, *args) -> None:
        """Run one output check, recording (not raising) a disagreement."""
        try:
            check(*args)
        except checks.CheckFailed as exc:
            self.problems.append(f"{check.__name__}: {exc}")

    def round(self, index: int) -> dict:
        raise NotImplementedError

    def finish(self, rounds: List[dict]) -> None:
        """Checks that need work outside the window (reference crawls, reopens)."""

    def metrics(self, rounds: List[dict]) -> Dict[str, float]:
        raise NotImplementedError


class Monitoring:
    """The monitoring passes of one round: answers beside expected answers, and time."""

    def __init__(self, tracer, subtree_root: int, names=monitoring.QUERIES) -> None:
        self.tracer = tracer
        self.subtree_root = subtree_root
        self.names = names
        self.passes: List[list] = []
        self.seconds = 0.0
        self.queries = 0
        self.failed = 0

    def run(self, database, visits, age: int = 0) -> None:
        """One pass over *database*, whose crawl so far visited *visits*.

        *age* picks the reachability root: that many visits before the
        newest (see :func:`monitoring.choose_probes`).
        """
        tracer = self.tracer
        with tracer.paused():
            snapshot = monitoring.Snapshot(database, visits)
            root, probes = monitoring.choose_probes(snapshot, age)
        results = monitoring.run_pass(
            database, CrawlMonitor(database), self.subtree_root, root, probes, tracer,
            self.names,
        )
        with tracer.paused():
            answers = {name: answer for name, answer, _ in results}
            expected = monitoring.expected_answers(
                snapshot, self.subtree_root, root, probes, answers.get("hub_percentile")
            )
            self.passes.append([(name, answers[name], expected[name]) for name in answers])
            self.seconds += sum(seconds for _, _, seconds in results)
            self.queries += len(results)
            self.failed += len(self.names) - len(results)

    def queries_per_sec(self) -> float:
        return self.queries / self.seconds


class CrawlWorkload(Workload):
    """One in-memory 4000-page crawl with monitoring passes beside it."""

    def __init__(self, web, tracer, workdir: str) -> None:
        super().__init__(web, tracer, workdir)
        self.web_topics = {url: page.topic_path for url, page in web.pages.items()}

    def round(self, index: int) -> dict:
        tracer = self.tracer
        started = time.perf_counter()
        system = trained_system(self.web, (CYCLING,), focus_config((CYCLING,), CRAWL_PAGES))
        setup_s = time.perf_counter() - started
        passes = Monitoring(tracer, system.taxonomy.by_path(SUBTREE_ROOT).cid)

        started = time.perf_counter()
        handle = system.start()
        crawl_s = time.perf_counter() - started
        steps = 0
        while not handle.done:
            started = time.perf_counter()
            handle.step()
            crawl_s += time.perf_counter() - started
            steps += 1
            if steps % PASS_EVERY_ROUNDS == 0 and not handle.done:
                passes.run(handle.database, handle.trace.visits)

        with tracer.paused():
            pages = handle.pages_fetched
            result = handle.result()
            self.verify(checks.check_focus, self.web_topics, CYCLING,
                        list(handle.trace.fetched_urls))
            self.verify(checks.check_monitoring, passes.passes, passes.names)
            add_io(self.io, handle.io_snapshot())
            self.failed += passes.failed
            figures = {
                "attempted": 1 + passes.queries + passes.failed,
                "setup_s": setup_s,
                "pages_per_sec": pages / crawl_s,
                "harvest_rate": result.harvest_rate(),
                "queries_per_sec": passes.queries_per_sec(),
            }
            handle.close()
        return figures

    def metrics(self, rounds: List[dict]) -> Dict[str, float]:
        return {key: median(rounds, key) for key in
                ("setup_s", "pages_per_sec", "harvest_rate", "queries_per_sec")}


class DurableWorkload(Workload):
    """The crawl on a durable database, killed midway and resumed."""

    def config(self, checkpointed: bool = True) -> FocusConfig:
        if not checkpointed:
            return focus_config((CYCLING,), CRAWL_PAGES)
        return focus_config((CYCLING,), CRAWL_PAGES, checkpoint_every=CHECKPOINT_EVERY,
                            buffer_pool_pages=DURABLE_POOL_PAGES)

    def round(self, index: int) -> dict:
        tracer = self.tracer
        started = time.perf_counter()
        system = trained_system(self.web, (CYCLING,), self.config())
        setup_s = time.perf_counter() - started
        directory = os.path.join(self.workdir, f"durable-{index}")
        passes = Monitoring(tracer, system.taxonomy.by_path(SUBTREE_ROOT).cid)

        fetched = steps = 0
        crawl_s = 0.0

        def crawl_until(handle, pages: int) -> None:
            nonlocal fetched, steps, crawl_s
            while handle.pages_fetched < pages and not handle.done:
                started = time.perf_counter()
                fetched += handle.step()
                crawl_s += time.perf_counter() - started
                steps += 1
                if steps % DURABLE_PASS_EVERY_ROUNDS == 0 and not handle.done:
                    passes.run(handle.database, handle.trace.visits)

        started = time.perf_counter()
        handle = system.start(checkpoint_dir=directory)
        crawl_s += time.perf_counter() - started
        crawl_until(handle, KILL_AFTER_PAGES)
        with tracer.paused():
            killed = handle.io_snapshot()
            pauses = list(handle.manager.pause_log)
        hard_close(handle.database)
        del handle

        started = time.perf_counter()
        handle = system.resume(directory)
        resume_s = time.perf_counter() - started
        crawl_s += resume_s
        crawl_until(handle, CRAWL_PAGES)

        with tracer.paused():
            final = handle.io_snapshot()
            pauses += handle.manager.pause_log
            pages = handle.pages_fetched
            self.verify(checks.check_monitoring, passes.passes, passes.names)
            self.failed += passes.failed
            figures = {
                "attempted": 2 + passes.queries + passes.failed,
                "setup_s": setup_s,
                "resume_s": resume_s,
                "pages_per_sec": fetched / crawl_s,
                "harvest_rate": handle.result().harvest_rate(),
                "queries_per_sec": passes.queries_per_sec(),
                "pauses": pauses,
                "wal_bytes_per_page": (killed["wal_bytes_written"] + final["wal_bytes_written"]) / pages,
                "visits": [(v.url, v.relevance) for v in handle.trace.visits],
                "directory": directory,
            }
            add_io(self.io, killed)
            add_io(self.io, final)
            hard_close(handle.database)
            figures["disk_bytes_per_page"] = directory_bytes(directory) / pages
        return figures

    def finish(self, rounds: List[dict]) -> None:
        system = trained_system(self.web, (CYCLING,), self.config(checkpointed=False))
        reference = [(v.url, v.relevance) for v in system.start().run().trace.visits]
        for figures in rounds:
            self.verify(checks.check_same_crawl, figures["visits"], reference,
                        "killed and resumed crawl")
            database = Database.open(figures["directory"])
            try:
                stored = database.sql(
                    "select url, relevance from CRAWL where status = 'visited'"
                )
            finally:
                database.close()
            self.verify(checks.check_readback, stored, figures["visits"])
            shutil.rmtree(figures["directory"])

    def metrics(self, rounds: List[dict]) -> Dict[str, float]:
        pauses = [p for figures in rounds for p in figures["pauses"]]
        values = {key: median(rounds, key) for key in
                  ("setup_s", "pages_per_sec", "harvest_rate", "queries_per_sec",
                   "wal_bytes_per_page", "disk_bytes_per_page", "resume_s")}
        values["checkpoint_pause_p50_ms"] = statistics.median(pauses) * 1e3
        return values


class ServiceWorkload(Workload):
    """48 small jobs over two topic sets, 4 in flight, one inline JobManager."""

    def round(self, index: int) -> dict:
        started = time.perf_counter()
        system = trained_system(self.web, TOPIC_SETS[0], focus_config(TOPIC_SETS[0], JOB_PAGES))
        manager = JobManager(system)
        for topics in TOPIC_SETS:  # trains the second system; warms both
            manager.submit(JobSpec(good_topics=topics, max_pages=JOB_PAGES))
        manager.run_until_idle()
        setup_s = time.perf_counter() - started

        ids: List[str] = []

        def submit() -> None:
            topics = TOPIC_SETS[len(ids) % len(TOPIC_SETS)]
            ids.append(manager.submit(JobSpec(good_topics=topics, max_pages=JOB_PAGES)))

        started = time.perf_counter()
        for _ in range(IN_FLIGHT):
            submit()
        while True:
            manager.step_once()
            status = {job["id"]: job["status"] for job in manager.jobs()}
            in_flight = sum(1 for job_id in ids if status[job_id] not in TERMINAL)
            while in_flight < IN_FLIGHT and len(ids) < JOBS_PER_ROUND:
                submit()
                in_flight += 1
            if not in_flight:
                break
        elapsed = time.perf_counter() - started

        # An operator inspects the finished jobs: one pass over each job's
        # database, before the manager closes them.  150-page jobs end
        # before their first distillation, so the pass has no hub queries.
        # The jobs of one topic set crawl alike, so a root chosen among the
        # newest pages would let two pages' out-links decide the run's
        # query time; the job's first page reaches all the job has found.
        passes = Monitoring(self.tracer, system.taxonomy.by_path(SUBTREE_ROOT).cid,
                            monitoring.UNDISTILLED_QUERIES)
        with self.tracer.paused():
            gc.collect()  # not in the first query: 48 databases are alive
        for job_id in ids:
            result = manager.result(job_id)
            passes.run(result.database, result.trace.visits, len(result.trace.visits) - 1)

        with self.tracer.paused():
            self.verify(checks.check_monitoring, passes.passes, passes.names)
            self.failed += passes.failed
            latency = {job["id"]: job["latency_s"] for job in manager.jobs()}
            summaries, failed = [], 0
            for position, job_id in enumerate(ids):
                summary = manager.result_summary(job_id)
                if summary["status"] == "failed":
                    failed += 1
                    continue
                summaries.append({
                    "id": job_id,
                    "status": summary["status"],
                    "pages_fetched": summary["pages_fetched"],
                    "harvest_rate": summary["harvest_rate"],
                    "topics": TOPIC_SETS[position % len(TOPIC_SETS)],
                    "visits": list(zip(summary["fetched_urls"], summary["relevance"])),
                })
                add_io(self.io, manager.result(job_id).database.io_snapshot())
            self.failed += failed
            self.verify(checks.check_jobs, summaries, JOB_PAGES, len(ids) - failed)
            manager.close()
            return {
                "attempted": len(ids) + passes.queries + passes.failed,
                "setup_s": setup_s,
                "pages_per_sec": sum(s["pages_fetched"] for s in summaries) / elapsed,
                "harvest_rate": statistics.fmean(s["harvest_rate"] for s in summaries),
                "queries_per_sec": passes.queries_per_sec(),
                "jobs_per_sec": len(ids) / elapsed,
                "latencies": [latency[job_id] for job_id in ids],
                "jobs": summaries,
            }

    def finish(self, rounds: List[dict]) -> None:
        for topics in TOPIC_SETS:
            system = trained_system(self.web, topics, focus_config(topics, JOB_PAGES))
            solo = system.start(
                JobSpec(good_topics=topics, max_pages=JOB_PAGES), private_servers=True
            ).run()
            reference = [(v.url, v.relevance) for v in solo.trace.visits]
            for figures in rounds:
                for job in figures["jobs"]:
                    if job["topics"] == topics:
                        self.verify(checks.check_same_crawl, job["visits"], reference,
                                    f"{job['id']} {topics}")

    def metrics(self, rounds: List[dict]) -> Dict[str, float]:
        latencies = [t for figures in rounds for t in figures["latencies"]]
        values = {key: median(rounds, key) for key in
                  ("setup_s", "pages_per_sec", "harvest_rate", "queries_per_sec",
                   "jobs_per_sec")}
        values["job_latency_p50_s"] = statistics.median(latencies)
        values["job_latency_p75_s"] = statistics.quantiles(latencies, n=4)[2]
        return values


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


WORKLOADS = {
    "crawl": CrawlWorkload,
    "durable": DurableWorkload,
    "service": ServiceWorkload,
}


def run_rounds(workload: Workload, seconds: float, traced: bool) -> List[dict]:
    """Whole rounds that fit in *seconds*, at least one (each inside the traced window)."""
    rounds: List[dict] = []
    started = time.perf_counter()
    # Start a round only if at least half of one (of the mean length so
    # far) still fits: a run lasts *seconds* give or take half a round.
    while not rounds or (time.perf_counter() - started) * (len(rounds) + 0.5) / len(rounds) <= seconds:
        if traced:
            workload.tracer.open()
        rounds.append(workload.round(len(rounds)))
        workload.tracer.close()
        gc.collect()
    return rounds
