"""The ``service`` workload: an open-loop request mix against ``repro serve``.

``repro serve --port 0 --tenants benchmarks/suite/tenants.json --jobs 1
--max-running 2 --max-queued 64`` runs as a subprocess.  Before any
timing, eight parameter sets are submitted to fill its cache (six
``yield_study wafers=2`` and two ``dse_search budget=4``).  Each
iteration is one *window* and then the *CPU probes*.

The window: ``rate * window_s`` requests due at uniformly random
moments of ``window_s`` seconds (Poisson arrivals given their count),
sent from one asyncio thread whatever the server's state (an open
loop).  Every window has the same mix, in a seeded order:

- 75% repeats of the eight parameter sets (cache reads),
- 22% ``yield_study wafers=2`` with a fresh seed (compute, cache writes),
- 3% ``dse_search budget=4`` with a fresh seed (the tail).

The shares and the rate are assumptions: there is no record of real
traffic to derive them from (see the README).  The counts are fixed
because a search request costs ~40 yield requests: with Poisson
counts, how many searches a run drew would set its results.  A
request's latency runs from the moment it was due to the end of its
``/v1/jobs/{id}/events`` stream.  Pooled over the run's windows, their
99th percentile (the searches) is ``latency_ms``; their median, a
cache hit of about 12 ms, is the per-layer ``service.p50_ms``, not an
end-to-end metric: it moved 20-28% between runs where CPU time moved
10%, more than the largest bound allows.  The generator's lateness is
a note.

The CPU probes: once the window has drained, ``PROBES`` fresh
``flexicore4`` yield studies and ``PROBES`` repeats of a cached one, one
at a time, each timed as the CPU seconds the server's threads spent on
it.  ``cold_s`` and ``warm_s`` are their medians.  They are CPU rather
than latency because the hypervisor of the machine the baseline comes
from steals up to 60% of its CPU for minutes at a time, which stretches
latency but not CPU time.

The tenants file lifts the development tenant's 10 submissions/s limit,
which would answer 429.
"""

import asyncio
import contextlib
import glob
import json
import random
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request

from benchmarks.suite.harness import (
    ROOT,
    SUITE,
    Sample,
    digest,
    iteration_seed,
    peak_rss_mb,
    quantile,
)
from benchmarks.suite.trace import TRACE_DIR_ENV, load_documents
from benchmarks.suite.workloads import SERVICE_SHARES, Workload

TENANTS = SUITE / "tenants.json"
API_KEY = json.loads(TENANTS.read_text())["tenants"][0]["key"]
SERVE_ARGS = ("serve", "--port", "0", "--tenants", str(TENANTS),
              "--jobs", "1", "--max-running", "2", "--max-queued", "64")
CORES = ("flexicore4", "flexicore8")
YIELD_SHARE = 0.22
SEARCH_SHARE = 0.03
#: The server runs jobs under its one interpreter lock, so the searches
#: set how busy it is: two ``budget=8`` searches a window kept it 45%
#: busy, and a host 35% slower pushed it into saturation (window p50
#: 15 ms -> 300 ms); two ``budget=4`` ones keep it about 30% busy.
SEARCH_BUDGET = 4
#: Fresh and repeated requests timed one at a time after each window.
PROBES = 6
#: Parameter-set seeds are drawn below this, fresh seeds above it.
FRESH_SEEDS = 1_000_000
REQUEST_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0


class Server:
    """``repro serve`` as a subprocess on ``cache``, optionally traced."""

    def __init__(self, ctx, cache, trace_dir=None):
        directory = ctx.scratch("serve")
        command = "benchmarks.suite.trace" if trace_dir else "repro.cli"
        extra = {TRACE_DIR_ENV: str(trace_dir)} if trace_dir else {}
        with open(directory / "serve.log", "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", command, *SERVE_ARGS,
                 "--cache-dir", str(cache)],
                cwd=ROOT, env=ctx.env(directory, **extra),
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
        try:
            line = self.process.stdout.readline()
            match = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(
                    f"repro serve did not start (see {directory}/serve.log)")
            self.host, self.port = match.group(1), int(match.group(2))
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self):
        url = f"http://{self.host}:{self.port}/healthz"
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    if response.status == 200:
                        return
            except OSError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.005)

    def cpu_seconds(self):
        """CPU time so far of the server's live threads, to the
        nanosecond (``/proc/<pid>/stat`` counts in 10 ms ticks).  Its
        threads (event loop, job slots, stream pollers) live as long as
        it does."""
        total = 0
        for path in glob.glob(f"/proc/{self.process.pid}/task/*/schedstat"):
            with contextlib.suppress(FileNotFoundError):  # a thread ended
                with open(path) as handle:
                    total += int(handle.read().split()[0])
        return total / 1e9

    def peak_rss_mb(self):
        """The server's peak resident set so far (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/<pid>/status")

    def stop(self):
        """SIGTERM (a graceful drain), then wait; idempotent."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


async def _http(host, port, method, path, document=None):
    """One request on its own connection (the server closes every
    connection); returns ``(status, body bytes)`` read to EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if document is None else json.dumps(document).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                f"Authorization: Bearer {API_KEY}\r\nConnection: close\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()
    status_line, _, rest = raw.partition(b"\r\n")
    return int(status_line.split()[1]), rest.partition(b"\r\n\r\n")[2]


async def _request(host, port, due, kind, label, params):
    """Submit, stream the events to the end, then fetch the document."""
    loop = asyncio.get_running_loop()
    record = {"kind": kind, "label": label, "params": params,
              "late_s": loop.time() - due}
    sent = loop.time()
    status, body = await _http(host, port, "POST", "/v1/jobs",
                               {"type": kind, "params": params})
    if status != 202:
        record["error"] = f"submit answered HTTP {status}: {body[:200]!r}"
        record["http_status"] = status
        return record
    job_id = json.loads(body)["id"]
    admitted = loop.time()
    await _http(host, port, "GET", f"/v1/jobs/{job_id}/events")
    ended, ended_wall = loop.time(), time.time()
    status, body = await _http(host, port, "GET", f"/v1/jobs/{job_id}")
    if status != 200:
        record["error"] = f"job document answered HTTP {status}"
        return record
    document = json.loads(body)
    record.update(
        latency_s=ended - due,
        admit_s=admitted - sent,
        queue_s=document["started"] - document["created"],
        run_s=document["finished"] - document["started"],
        stream_s=ended_wall - document["finished"],
        status=document["status"],
        cache_hit=document["cache_hit"],
        artifacts=[artifact["digest"] for artifact in document["artifacts"]],
    )
    return record


async def _run(host, port, plan):
    """Send ``plan`` (``[(offset s, kind, label, params)]``) on schedule
    and wait for every request."""
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.02
    tasks = []
    for offset, kind, label, params in plan:
        delay = start + offset - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(asyncio.wait_for(
            _request(host, port, start + offset, kind, label, params),
            REQUEST_TIMEOUT_S)))
    return await asyncio.gather(*tasks, return_exceptions=True)


async def _one_by_one(server, plan):
    """Send ``plan`` one request at a time to an idle server; each
    record carries the server CPU seconds it cost (``cpu_s``)."""
    loop = asyncio.get_running_loop()
    records = []
    for _, kind, label, params in plan:
        before = server.cpu_seconds()
        try:
            record = await asyncio.wait_for(
                _request(server.host, server.port, loop.time(), kind,
                         label, params),
                REQUEST_TIMEOUT_S)
        except (OSError, ValueError, IndexError,
                asyncio.TimeoutError) as exc:
            records.append(exc)
            continue
        record["cpu_s"] = server.cpu_seconds() - before
        records.append(record)
    return records


def parameter_sets(seed):
    """``{label: (kind, params)}``: the eight repeated parameter sets."""
    seeds = random.Random(f"sets:{seed}").sample(range(FRESH_SEEDS), 8)
    sets = {}
    for index, set_seed in enumerate(seeds):
        if index < 6:
            sets[f"set{index}"] = ("yield_study", {
                "core": CORES[index % 2], "wafers": 2, "seed": set_seed})
        else:
            sets[f"set{index}"] = ("dse_search",
                                   {"budget": SEARCH_BUDGET,
                                    "seed": set_seed})
    return sets


def arrival_plan(seed, index, rate, duration, sets):
    """``[(offset s, kind, label, params)]`` for window ``index`` of a
    run, seeded by ``seed``.

    The searches are the tail, so they alone are not left to chance:
    they arrive evenly spaced, and their seeds come from ``index``
    alone, so every run searches the same designs.  A search's cost
    depends on its seed (0.2-0.6 s at ``budget=8``), and two that
    arrive together take twice as long; with a few searches per run,
    the p99 would otherwise measure which seeds and collisions a run
    drew.
    """
    rng = random.Random(seed)
    search_rng = random.Random(f"search:{index}")
    count = round(rate * duration)
    searches = max(1, round(count * SEARCH_SHARE))
    yields = round(count * YIELD_SHARE)
    kinds = ["yield_study"] * yields + [None] * (count - searches - yields)
    rng.shuffle(kinds)
    offsets = sorted(rng.uniform(0.0, duration) for _ in kinds)
    arrivals = sorted(
        list(zip(offsets, kinds))
        + [((k + 0.5) * duration / searches, "dse_search")
           for k in range(searches)],
        key=lambda arrival: arrival[0])
    labels = sorted(sets)
    plan = []
    for offset, kind in arrivals:
        if kind is None:
            label = rng.choice(labels)
            kind, params = sets[label]
        elif kind == "yield_study":
            label = None
            params = {"core": rng.choice(CORES), "wafers": 2,
                      "seed": rng.randrange(FRESH_SEEDS, 2 ** 31)}
        else:
            label = None
            params = {"budget": SEARCH_BUDGET,
                      "seed": search_rng.randrange(FRESH_SEEDS, 2 ** 31)}
        plan.append((offset, kind, label, params))
    return plan


def probe_plan(seed, sets):
    """``PROBES`` fresh ``flexicore4`` yield studies alternating with
    ``PROBES`` repeats of the first (a ``flexicore4`` yield study).  One
    kind each, so every run's medians are over the same work."""
    rng = random.Random(f"probe:{seed}")
    kind, params = sets["set0"]
    plan = []
    for _ in range(PROBES):
        plan.append((0.0, "yield_study", None, {
            "core": CORES[0], "wafers": 2,
            "seed": rng.randrange(FRESH_SEEDS, 2 ** 31)}))
        plan.append((0.0, kind, "set0", params))
    return plan


class Service(Workload):
    """HTTP, admission, queueing, and cache reads beside cache writes."""

    name = "service"
    #: About 240 requests a run; the top 3% are the pinned searches.
    TAIL = 0.99
    #: One traced window already holds a dozen timed requests.
    TRACED_REPEATS = 1

    def __init__(self, rate=20.0, window_s=3.0):
        self.rate = rate
        self.window_s = window_s
        self.server = None

    def params(self):
        return {"rate": self.rate, "window_s": self.window_s}

    def warm_up(self, ctx, seed):
        return []  # filling the cache in start() already warmed it

    def setup_seconds(self, ctx, seed):
        """CPU seconds of a server boot until ``/healthz`` answers, on
        an empty cache."""
        server = Server(ctx, ctx.scratch("setup-cache"))
        seconds = server.cpu_seconds()
        server.stop()
        return seconds

    def start(self, ctx, seed):
        self.sets = parameter_sets(seed)
        cache = ctx.scratch("service-cache")
        self.server = Server(ctx, cache)
        # Each set is submitted twice, one request at a time: the first
        # fills the cache, the second shows what a repeat returns (a
        # search's artifacts record which evaluations were cache hits).
        self.expected = {}
        plan = [(0.0, kind, label, params)
                for label, (kind, params) in sorted(self.sets.items())]
        for record in asyncio.run(_one_by_one(self.server, plan * 2)):
            if isinstance(record, BaseException) or "error" in record \
                    or record["status"] != "completed":
                raise RuntimeError(f"service prefill failed: {record!r}")
            self.expected[record["label"]] = record["artifacts"]
        # The traced window starts from this same filled cache.
        self.prefilled = ctx.scratch("service-prefilled")
        shutil.copytree(cache, self.prefilled, dirs_exist_ok=True)

    def stop(self, ctx):
        if self.server is not None:
            self.server.stop()

    def peak_rss_mb(self):
        """The timed server's peak, or that of a reaped server (the setup
        probes' boots) if larger; the benchmark process is not counted."""
        live = self.server.peak_rss_mb() if self.server else 0.0
        return max(live, peak_rss_mb(children_only=True))

    def iterate(self, ctx, index, seed):
        host, port = self.server.host, self.server.port
        window = asyncio.run(_run(host, port, arrival_plan(
            seed, index, self.rate, self.window_s, self.sets)))
        probes = asyncio.run(_one_by_one(
            self.server, probe_plan(seed, self.sets)))
        sample = Sample(attempted=len(window) + len(probes))
        outputs = []
        for record in window + probes:
            if isinstance(record, BaseException):
                sample.fail(f"request failed: {record!r}")
                continue
            outputs.append([record["kind"], record["params"],
                            record.get("artifacts")])
            if "error" in record:
                sample.fail(record["error"])
            elif record["status"] != "completed":
                sample.fail(f"{record['kind']} ended {record['status']}")
            elif record["label"] is None:
                if record["cache_hit"]:
                    sample.fail("a fresh-seed request was a cache hit")
                if "cpu_s" in record:
                    sample.cold.append(record["cpu_s"])
            else:
                if not record["cache_hit"]:
                    sample.fail(f"repeat of {record['label']} missed cache")
                if record["artifacts"] != self.expected[record["label"]]:
                    sample.fail(f"repeat of {record['label']} returned "
                                f"other artifacts")
                if "cpu_s" in record:
                    sample.warm.append(record["cpu_s"])
        sample.digest = digest(outputs)
        done = [record for record in window
                if isinstance(record, dict) and "latency_s" in record]
        sample.latency = [record["latency_s"] for record in done]
        sample.details = {
            "requests": len(window),
            "lateness_p99_ms": 1e3 * quantile(
                [record["late_s"] for record in window
                 if isinstance(record, dict)], 0.99),
            "rejected": sum(1 for record in window
                            if isinstance(record, dict)
                            and record.get("http_status") in (403, 429)),
            "shares": _shares(done),
        }
        return sample

    def traced(self, ctx, seed, out_dir):
        """Iteration 0 again, on a traced server started from the
        filled cache.  A new server process is warmed by one untimed
        window first, as the untraced one was by the prefill and earlier
        windows; only spans inside iteration 0 are kept, and the
        server's busy time is its CPU time over it."""
        self.server.stop()
        self.server = Server(ctx, self.prefilled, trace_dir=out_dir)
        try:
            warm = self.iterate(ctx, -1, iteration_seed(seed, -1))
            cpu0, wall0 = self.server.cpu_seconds(), time.perf_counter_ns()
            sample = self.iterate(ctx, 0, seed)
            cpu1, wall1 = self.server.cpu_seconds(), time.perf_counter_ns()
        finally:
            self.server.stop()
        for error in warm.errors:
            sample.fail(f"traced warm-up: {error}")
        (document,) = load_documents(out_dir)
        document["spans"] = [span for span in document["spans"]
                             if wall0 <= span[4] and span[5] <= wall1]
        document["busy_cpu_ns"] = round((cpu1 - cpu0) * 1e9)
        return sample, [document]

    def request_metrics(self, sample, untraced):
        return {**sample.details["shares"],
                "service.rejected": sample.details["rejected"],
                "service.p50_ms": 1e3 * quantile(
                    untraced.values("latency"), 0.5)}


def _shares(records):
    """Where window latency went: admission (the POST), queueing and
    running (from the job document), and the stream's tail."""
    total = sum(record["latency_s"] for record in records)
    parts = dict(zip(SERVICE_SHARES,
                     ("admit_s", "queue_s", "run_s", "stream_s")))
    return {name: (sum(record[part] for record in records) / total
                   if total else 0.0)
            for name, part in parts.items()}
