"""Workload ``serve``: open-loop traffic against ``python -m repro serve``.

The server runs with default flags in its own process, started the way
users start it.  One generator process sends requests on a constant-rate
schedule whose order the seed shuffles, over one keep-alive connection per
available CPU; a request's latency counts from the moment it was due, so a
stall also charges the requests queued behind it, and the generator's
lateness is reported.

Requests come in rounds of a fixed mix, shuffled by the seed: most are
``/v1/multiply`` on a few structures the server has already seen (replay
and micro-batching), some bring a structure it has never seen (cold), and
one is ``/v1/pagerank`` on a graph it has seen.  Sizes mix small
(~10 kflop, where HTTP parsing, admission, batching and serialisation
dominate) and mid-size (~10^5 products, where numeric work dominates).
Each request's floor (the same bytes through a stdlib echo server, plus the
scipy product) is timed by its sender right after the response arrives;
every response is checked after the traffic.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time

import numpy as np

import oracle
from host import ROOT, available_cpus, geomean, log, no_gc, now, pid_peak_rss_mib, untraced

#: Offered load, requests per second: well below the knee of a 2-CPU host,
#: so latency is mostly service time, not queueing behind bursts.
RATE = 8.0
#: One round of the request mix: (kind, count).
MIX = (("small", 7), ("mid", 4), ("small_cold", 8), ("pagerank", 1))
SHARED_SMALL = 3
FLOOR_REPEATS = 3
SCHEME = "row-product"
DAMPING, TOL, MAX_ITER = 0.85, 1e-10, 200


def _wire(m) -> dict:
    return {
        "shape": [int(m.shape[0]), int(m.shape[1])],
        "indptr": m.indptr.tolist(),
        "indices": m.indices.tolist(),
        "data": m.data.tolist(),
    }


def _from_wire(obj):
    from repro.sparse.csr import CSRMatrix

    return CSRMatrix(
        tuple(obj["shape"]), np.asarray(obj["indptr"], dtype=np.int64),
        np.asarray(obj["indices"], dtype=np.int64), np.asarray(obj["data"], dtype=np.float64),
    )


def floor(req: dict, echo: http.client.HTTPConnection) -> float:
    """The least a served request costs on this host, timed right after its
    response arrives: the same bytes over HTTP to a stdlib echo server, plus
    the scipy product (or power iteration) of the same operand.

    A served request is mostly transport, parsing and thread hand-offs, whose
    cost drifts with the host's scheduling latency, which a bare scipy
    product does not feel.  The scipy part is the median of a few timings
    with the collector paused.
    """
    t0 = now()
    echo.request("POST", "/", req["body"], {"X-Reply-Bytes": str(len(req["payload"]))})
    echo.getresponse().read()
    transport = now() - t0
    m_sp = oracle.to_scipy(req["operand"])
    times = []
    with no_gc():
        for _ in range(FLOOR_REPEATS):
            t0 = now()
            if req["route"] == "pagerank":
                oracle.scipy_pagerank(m_sp, DAMPING, TOL, MAX_ITER)
            else:
                oracle.floor_product(m_sp, m_sp)
            times.append(now() - t0)
    return transport + float(np.median(times))


def start_child(args: list[str], ready: str) -> tuple[subprocess.Popen, str]:
    """Start a child process and return it with its first stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen(
        args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith(ready):
        stop_child(proc)
        raise RuntimeError(f"{args[1:3]} did not start: {line!r}")
    return proc, line.strip()


def stop_child(proc: subprocess.Popen) -> int:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()
    return proc.returncode


class Server:
    """A ``repro serve`` subprocess on a free port."""

    def __init__(self, trace_dir: str | None) -> None:
        args = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if trace_dir is not None:
            args += ["--trace-dir", trace_dir, "--trace-slow-ms", "0"]
        self.proc, line = start_child(args, "serving on http://")
        self.host, port = line.rsplit("/", 1)[-1].rsplit(":", 1)
        self.port = int(port)
        deadline = time.monotonic() + 30
        while True:
            try:
                if self.get("/healthz").get("ok"):
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never became healthy")
            time.sleep(0.02)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def get(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        conn = self.connect()
        try:
            conn.request("POST", path, body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mib(self) -> float:
        return pid_peak_rss_mib(self.proc.pid)

    def stop(self) -> int:
        return stop_child(self.proc)


class Serve:
    def __init__(self, seed: int, workdir: str, traced: bool) -> None:
        from repro.sparse.random import banded_regular, power_law

        self.seed = seed
        self.rng = np.random.default_rng(seed)
        # Banded structures keep request and response sizes the same from
        # seed to seed; a 300-row power-law graph's product size does not.
        self.small_gen = lambda s: banded_regular(300, 5, s).to_csr()
        self.mid_gen = lambda s: banded_regular(1500, 8, s).to_csr()
        self.small = [self.small_gen(seed * 1009 + i) for i in range(SHARED_SMALL)]
        self.mid = self.mid_gen(seed * 1009 + SHARED_SMALL)
        self.graph = power_law(2000, 10000, seed * 1009 + SHARED_SMALL + 1).to_csr()
        self.fresh = 0
        self.trace_dir = os.path.join(workdir, "traces") if traced else None
        self.server = Server(self.trace_dir)
        self.echo = None
        try:
            script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "echo_server.py")
            self.echo, line = start_child([sys.executable, script], "listening ")
            self.echo_port = int(line.split()[1])
            # Every shared structure is seen once before timing starts: a
            # warm server is the steady state this workload measures.
            for m in [*self.small, self.mid]:
                self.send(self.request("multiply", m))
            self.send(self.request("pagerank", self.graph))
        except BaseException:
            self.close()
            raise

    def close(self) -> int:
        if self.echo is not None:
            stop_child(self.echo)
        return self.server.stop()

    def values(self, m):
        from repro.sparse.csr import CSRMatrix

        return CSRMatrix(m.shape, m.indptr, m.indices, self.rng.random(m.nnz) + 0.5)

    def request(self, route: str, m) -> dict:
        if route == "pagerank":
            body = {"algorithm": SCHEME, "adjacency": _wire(m), "damping": DAMPING,
                    "tol": TOL, "max_iter": MAX_ITER}
        else:
            body = {"algorithm": SCHEME, "a": _wire(m)}
        return {"route": route, "operand": m, "body": json.dumps(body).encode()}

    def send(self, req: dict) -> None:
        status, payload = self.server.post(f"/v1/{req['route']}", req["body"])
        if status != 200:
            raise RuntimeError(f"warm-up request failed with {status}")

    def make(self, kind: str) -> dict:
        if kind == "small":
            base = self.small[int(self.rng.integers(SHARED_SMALL))]
        elif kind == "mid":
            base = self.mid
        elif kind == "pagerank":
            req = self.request("pagerank", self.values(self.graph))
            req["kind"] = kind
            return req
        else:
            self.fresh += 1
            base = self.small_gen(self.seed * 1009 + 1000 + self.fresh)
        req = self.request("multiply", self.values(base))
        req["kind"] = kind
        return req

    def schedule(self, seconds: float) -> list[dict]:
        """Whole rounds of the mix, due at a constant rate, for ``seconds``."""
        per_round = sum(n for _, n in MIX)
        rounds = max(1, int(round(seconds * RATE / per_round)))
        reqs = []
        for _ in range(rounds):
            kinds = [k for k, n in MIX for _ in range(n)]
            self.rng.shuffle(kinds)
            reqs.extend(self.make(k) for k in kinds)
        for i, req in enumerate(reqs):
            req["due"] = i / RATE
        return reqs

    def drive(self, reqs: list[dict]) -> None:
        """Send on schedule from one thread per connection; fill in timings."""
        work: queue.Queue = queue.Queue()
        for req in reqs:
            work.put(req)
        start = now() + 0.05

        def sender() -> None:
            conn = self.server.connect()
            echo = http.client.HTTPConnection("127.0.0.1", self.echo_port, timeout=60)
            try:
                while True:
                    try:
                        req = work.get_nowait()
                    except queue.Empty:
                        return
                    delay = start + req["due"] - now()
                    if delay > 0:
                        time.sleep(delay)
                    req["sent"] = now() - start
                    try:
                        conn.request("POST", f"/v1/{req['route']}", req["body"],
                                     {"Content-Type": "application/json"})
                        resp = conn.getresponse()
                        req["status"], req["payload"] = resp.status, resp.read()
                    except (OSError, http.client.HTTPException) as exc:
                        req["status"], req["payload"] = 0, str(exc).encode()
                        conn.close()
                        conn = self.server.connect()
                    req["done"] = now() - start
                    req["floor"] = floor(req, echo)
            finally:
                conn.close()
                echo.close()

        threads = [threading.Thread(target=sender) for _ in range(available_cpus())]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def checks(self, reqs: list[dict]) -> None:
        """Check every response against the oracle and the batch path."""
        from repro.runtime import Runtime, RuntimeConfig

        with Runtime(RuntimeConfig(use_result_cache=False)) as local:
            for req in reqs:
                if req["status"] != 200:
                    continue
                body = json.loads(req["payload"])
                m = req["operand"]
                if req["route"] == "pagerank":
                    ref, _ = oracle.scipy_pagerank(oracle.to_scipy(m), DAMPING, TOL, MAX_ITER)
                    oracle.check_pagerank(np.asarray(body["scores"]), ref)
                    continue
                c = _from_wire(body["result"])
                oracle.ProductOracle(m).check(c, m)
                # Served results equal the batch path's bit for bit, replay
                # included: the local runtime sees the same sequence.
                oracle.check_identical(c, local.multiply(SCHEME, m).result, "served product")

    def stage_times(self) -> dict:
        """Per-request stage means from the server's own trace exports."""
        files = sorted(os.listdir(self.trace_dir)) if self.trace_dir else []
        sums: dict[str, float] = {}
        count = 0
        for name in files:
            with open(os.path.join(self.trace_dir, name), encoding="utf-8") as fh:
                events = [e for e in json.load(fh)["traceEvents"] if e.get("ph") == "X"]
            root = [e for e in events if e["name"].startswith("request[")]
            if not root:
                continue
            count += 1
            covered = 0.0
            for e in events:
                if e["name"].startswith("request."):
                    stage = e["name"][len("request."):]
                    sums[stage] = sums.get(stage, 0.0) + e["dur"] / 1e3
                    covered += e["dur"] / 1e3
            sums["unattributed"] = sums.get("unattributed", 0.0) + root[0]["dur"] / 1e3 - covered
        return {k: v / count for k, v in sums.items()} if count else {}

    def run(self, seconds: float, layers) -> dict:
        before = self.server.get("/stats")
        reqs = self.schedule(seconds)
        self.drive(reqs)
        after = self.server.get("/stats")
        rss = self.server.peak_rss_mib()
        with untraced(layers):  # the checks' local runtime is not the server
            self.checks(reqs)
        failed = sum(1 for r in reqs if r["status"] != 200)
        # Only answered requests are timed: the quick error reply of a shed
        # or broken request would flatter every latency figure.
        served = [r for r in reqs if r["status"] == 200]
        latency = {r["kind"]: [] for r in reqs}
        for r in served:
            latency[r["kind"]].append((r["done"] - r["due"], r["floor"]))

        def ratio(kind):
            # Median over requests of latency over the floor timed right
            # after it: a host hiccup slows a request and its floor alike.
            ratios = [t / f for t, f in latency[kind]]
            if not ratios:
                raise RuntimeError(f"no {kind} request was answered")
            return float(np.median(ratios))

        all_ms = [(r["done"] - r["due"]) * 1e3 for r in served]
        log("serve medians, latency / floor (ms): " + ", ".join(
            f"{k} {1e3 * np.median([t for t, _ in v]):.2f}/{1e3 * np.median([f for _, f in v]):.3f}"
            for k, v in latency.items()))
        out = {
            "attempted": len(reqs),
            "failed": failed,
            "peak_rss_mib": [rss],
            "cold_x_floor": [ratio("small_cold")],
            # Each class's median, then their geometric mean: a median over
            # both classes would jump between their two distributions.
            "warm_x_floor": [geomean([ratio("small"), ratio("mid")])],
            "pagerank_x_floor": [ratio("pagerank")],
            "raw.cold_ms": [t * 1e3 for t, _ in latency["small_cold"]],
            "raw.warm_ms": [t * 1e3 for k in ("small", "mid") for t, _ in latency[k]],
            "raw.pagerank_ms": [t * 1e3 for t, _ in latency["pagerank"]],
            "floor.scipy_ms": [r["floor"] * 1e3 for r in served],
            "serve.p50_ms": [float(np.median(all_ms))],
            "serve.p90_ms": [float(np.percentile(all_ms, 90, method="inverted_cdf"))],
            "serve.late_ms": [(r["sent"] - r["due"]) * 1e3 for r in reqs],
            "rounds": len(reqs) // sum(n for _, n in MIX),
        }
        if layers is not None:
            for stage, ms in self.stage_times().items():
                out[f"serve.{stage}_ms"] = [ms]
            b0, b1 = before["batching"], after["batching"]
            batches = b1["batches"] - b0["batches"]
            if batches:
                batched = b1["batched_requests"] - b0["batched_requests"]
                out["serve.coalescence"] = [batched / batches]
            out["serve.requests_per_lowering"] = [after["requests_per_lowering"] or 0.0]
            pc0, pc1 = before["runtime"]["plan_cache"], after["runtime"]["plan_cache"]
            for key in ("lookups", "hits", "lowers"):
                layers.values[f"plan.{key}"] += pc1[key] - pc0[key]
        return out
