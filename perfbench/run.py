#!/usr/bin/env python3
"""Repo benchmark: eval-ppl, owner-serve and audit-fleet (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-ppl --seed 1 --seconds 30 --trace 0

It builds the repo into .bench_build/perfbench, prepares a zoo cache and the
watermark artifacts once (outside any timed run), runs one workload and
prints one JSON object as its last stdout line. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import random
import selectors
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
BUILD = WORK / "build"
ZOO = WORK / "zoo"
ARTIFACTS = WORK / "artifacts"
PREPARED = WORK / "prepared.json"
DRIVER = BUILD / "perfbench_driver"
CLI = BUILD / "emmark" / "emmark_cli"

# perplexity(const QuantizedModel&) of llama2-70b-sim awq-int4 over the test
# stream. The repo's contract makes it bit-identical across kernel levels
# and thread counts, so any other value is a correctness failure.
PINNED_PPL = "4.7351004087861366"

# Bump when the prepared artifacts change shape, so old ones are rebuilt.
PREPARE_VERSION = 3

WORKLOADS = {
    "eval-ppl": {
        "threads": 1,
        "specs": ["llama2-70b-sim:awq-int4"],
    },
    "owner-serve": {
        "threads": 2,
        "specs": ["llama2-70b-sim:int4", "llama2-13b-sim:int4"],
        # 13b-heavy, so the median lands inside the 13b latency mode; an even
        # split puts it in the valley between the two specs' modes, where it
        # swings with every small shift in either.
        "spec_weights": [0.2, 0.8],
        "rate_rps": 40,
        "closed_requests": 1200,
        "insert_share": 0.7,
    },
    "audit-fleet": {
        "threads": 1,
        # OPT and LLaMA, int4 and int8. The 2-shard ring homes the first two
        # on shard 0 and the last two on shard 1.
        "specs": ["opt-125m-sim:int8", "llama2-13b-sim:int4",
                  "opt-1.3b-sim:int4", "llama2-13b-sim:int8"],
        "rate_rps": 40,
        "closed_requests": 2400,
        "verb_weights": {"verify": 0.4, "extract": 0.3, "trace": 0.3},
    },
}
PREPARE_SPECS = sorted({s for w in WORKLOADS.values() for s in w["specs"]})

WINDOW_PER_CONN = 8
CONNECTIONS = 2
REPLAY_REQUESTS = 48
# Inserts reuse this many codes paths per phase. Far more than the requests
# ever in flight, so no two in-flight inserts share a path.
CODES_SLOTS = 64
SEGMENTS = 7
# peak_rps is the median rate over windows of this many completed requests;
# the host's speed swings within a second, and the median of many short
# windows rides out the swings where one long window averages them in.
RPS_WINDOW = 50
IO_TIMEOUT_S = 60.0

VERBS = ("insert", "extract", "verify", "trace")


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(values):
    """The highest of p90/p95/p99/p99.9 with at least 10 samples beyond it."""
    n = len(values)
    best = (50.0, statistics.median(values))
    for pct in (90.0, 95.0, 99.0, 99.9):
        if n * (100.0 - pct) / 100.0 >= 10:
            best = (pct, percentile(values, pct))
    return best


# --- build and prepare -------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repo sources under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(WORK / "build.log", "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"], check=True, env=env_with(4),
                           stdout=out, stderr=subprocess.STDOUT)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"], check=True,
                       env=env_with(4), stdout=out, stderr=subprocess.STDOUT)


def zoo_listing():
    return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns)
                  for p in ZOO.iterdir()) if ZOO.exists() else []


def prepare():
    """Trains missing zoo models and writes every workload's artifacts, once."""
    if PREPARED.exists():
        prepared = json.loads(PREPARED.read_text())
        if prepared.get("version") == PREPARE_VERSION:
            return prepared
    log("preparing zoo cache and artifacts (first run only)")
    shutil.rmtree(ARTIFACTS, ignore_errors=True)
    cmd = [str(DRIVER), "prepare", "--cache", str(ZOO), "--out", str(ARTIFACTS)]
    for spec in PREPARE_SPECS:
        cmd += ["--spec", spec]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         env=env_with(4), timeout=800)
    prepared = json.loads(out.stdout.strip().splitlines()[-1])
    prepared["version"] = PREPARE_VERSION
    PREPARED.write_text(json.dumps(prepared))
    return prepared


def env_with(threads):
    """The environment of every child: pool size pinned, and the zoo cache
    and temporary files kept inside the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["EMMARK_THREADS"] = str(threads)
    env["EMMARK_CACHE"] = str(ZOO)
    env["TMPDIR"] = str(tmp)
    return env


def spec_parts(spec):
    model, quant = spec.split(":")
    return model, quant


def art(spec, name):
    return ARTIFACTS / spec.replace(":", "_") / name


# --- run metadata ------------------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    best, fstype = "", "unknown"
    try:
        for line in Path("/proc/self/mounts").read_text().splitlines():
            fields = line.split()
            mount = fields[1]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def source_commit():
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over the repo's build inputs, which names the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def calib():
    """Host calibration loop and the kernel level this host selects."""
    out = subprocess.run([str(DRIVER), "calib"], check=True, capture_output=True,
                         text=True, timeout=60, env=env_with(1))
    return json.loads(out.stdout.strip().splitlines()[-1])


# --- process helpers -----------------------------------------------------------

def vm_hwm_kb(pid):
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def children_of(pid):
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
        return [int(c) for c in text.split()]
    except OSError:
        return []


def stop_process(proc):
    """SIGTERMs the process group, SIGKILLs what lingers, and waits for all of it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    # A fleet's workers share the supervisor's group; none may outlive it.
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        if time.monotonic() > deadline:
            raise BenchError(f"processes of group {proc.pid} did not exit")
        time.sleep(0.01)


class Server:
    """One emmark_cli serve process; stderr goes to a log file."""

    def __init__(self, args, threads, log_path, banner):
        self.start = time.perf_counter()
        with open(log_path, "w") as err:
            self.proc = subprocess.Popen(
                [str(CLI), "serve"] + args, cwd=str(ROOT), env=env_with(threads),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True)
        deadline = time.monotonic() + IO_TIMEOUT_S
        pattern = re.compile(banner + r"[0-9.]+:(\d+)")
        while True:
            match = pattern.search(Path(log_path).read_text())
            if match:
                self.port = int(match.group(1))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                stop_process(self.proc)
                raise BenchError("server did not start: " + Path(log_path).read_text())
            time.sleep(0.001)

    def rss_kb(self):
        pids = [self.proc.pid] + children_of(self.proc.pid)
        return sum(vm_hwm_kb(p) for p in pids)

    def stop(self):
        stop_process(self.proc)


# --- clients -------------------------------------------------------------------

class Conn:
    """A pipelined client connection: line protocol or HTTP/1.1 keep-alive."""

    def __init__(self, port, http):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.http = http
        self.buf = b""
        self.pending = []  # requests awaiting a response, in order

    def send(self, req):
        verb, params = req["verb"], req["params"]
        if self.http:
            body = params.encode()
            data = (f"POST /v1/{verb} HTTP/1.1\r\nHost: localhost\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        else:
            data = f"{verb} {params}\n".encode()
        self.sock.sendall(data)
        self.pending.append(req)

    def read_available(self):
        """Reads once; returns the (request, response) pairs completed."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise BenchError("server closed the connection")
        self.buf += chunk
        done = []
        while self.pending:
            body = self._take_one()
            if body is None:
                break
            done.append((self.pending.pop(0), body))
        return done

    def _take_one(self):
        if not self.http:
            nl = self.buf.find(b"\n")
            if nl < 0:
                return None
            line, self.buf = self.buf[:nl], self.buf[nl + 1:]
            return line.decode()
        head_end = self.buf.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self.buf[:head_end].decode("latin-1")
        length = int(re.search(r"(?im)^content-length:\s*(\d+)", head).group(1))
        if len(self.buf) < head_end + 4 + length:
            return None
        body = self.buf[head_end + 4:head_end + 4 + length]
        self.buf = self.buf[head_end + 4 + length:]
        return body.decode().strip()

    def roundtrip_raw(self, data, until):
        """Sends raw bytes on an idle connection and reads until `until`."""
        self.sock.sendall(data)
        while until not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise BenchError("server closed the connection")
            self.buf += chunk
        end = self.buf.index(until) + len(until)
        text, self.buf = self.buf[:end].decode(), self.buf[end:]
        return text

    def close(self):
        self.sock.close()


def check_response(req, body, expected):
    """Returns (ok, shed) for one response against its expected outcome."""
    try:
        resp = json.loads(body)
    except ValueError:
        return False, False
    if not resp.get("ok"):
        return False, bool(resp.get("shed"))
    verb = req["verb"]
    if verb == "insert":
        return resp.get("total_bits") == expected["total_bits"][req["spec"]], False
    if verb == "extract":
        return resp.get("wer_pct") == 100, False
    if verb == "verify":
        return resp.get("verified") is True, False
    if verb == "trace":
        return resp.get("device") == req["device"] and resp.get("matched") is True, False
    return False, False


class Phase:
    """Attempted/ok/failed/shed counts and latencies of one traffic phase."""

    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.shed = 0
        self.lat_ms = []
        self.service_ms = []
        self.late_ms = []
        self.elapsed_s = 0.0
        self.window_rps = []
        self.span = None  # index of the phase's current span in the client spans
        self.first_failure = None

    def record(self, req, body, expected, now):
        self.attempted += 1
        ok, shed = check_response(req, body, expected)
        if ok:
            self.ok += 1
        else:
            self.failed += 1
            self.shed += int(shed)
            if self.first_failure is None:
                self.first_failure = f"{req['verb']} {req['params']} -> {body}"
        self.lat_ms.append((now - req["due"]) * 1e3)
        self.service_ms.append((now - req["sent"]) * 1e3)

    def counts(self):
        return {"attempted": self.attempted, "ok": self.ok, "failed": self.failed,
                "shed": self.shed, "first_failure": self.first_failure}


def pump(conns, phase, expected, spans, deadline, wake_at=None):
    """Waits until a response arrives (or wake_at) and records what is ready."""
    sel = selectors.DefaultSelector()
    for c in conns:
        if c.pending:
            sel.register(c.sock, selectors.EVENT_READ, c)
    if not sel.get_map():
        return
    events = sel.select(max(0.0, min(wake_at or deadline, deadline) - time.perf_counter()))
    sel.close()
    for key, _ in events:
        for req, body in key.data.read_available():
            now = time.perf_counter()
            phase.record(req, body, expected, now)
            if spans is not None:
                spans.append({"name": f"client.{req['verb']}", "start": req["sent"],
                              "end": now, "parent": phase.span, "request": req["id"]})
    if time.perf_counter() > deadline:
        raise BenchError(f"phase {phase.name} timed out")


@contextlib.contextmanager
def phase_span(spans, phase, seg):
    """Records a span around one traffic phase; client spans name it parent."""
    if spans is None:
        yield
        return
    spans.append({"name": f"phase.{phase.name}", "start": time.perf_counter(), "end": None,
                  "parent": None, "request": f"segment-{seg}"})
    phase.span = len(spans) - 1
    try:
        yield
    finally:
        spans[phase.span]["end"] = time.perf_counter()


def run_open_loop(conns, reqs, rate, expected, spans, rng, phase):
    """Sends reqs round-robin over conns at seeded Poisson arrival times.

    Evenly spaced arrivals would beat against the server's 20 ms poll
    timeout, so each request's latency would snap to one of a few fixed
    values and the median would jump between them as the host speed
    drifts; random gaps spread the completions over the poll cycle.
    """
    due = time.perf_counter() + 0.05
    for req in reqs:
        req["due"] = due
        due += rng.expovariate(rate)
    deadline = due + IO_TIMEOUT_S
    nxt = 0
    while nxt < len(reqs) or any(c.pending for c in conns):
        now = time.perf_counter()
        while nxt < len(reqs) and reqs[nxt]["due"] <= now:
            req = reqs[nxt]
            req["sent"] = time.perf_counter()
            phase.late_ms.append((req["sent"] - req["due"]) * 1e3)
            conns[nxt % len(conns)].send(req)
            nxt += 1
        next_due = reqs[nxt]["due"] if nxt < len(reqs) else None
        if any(c.pending for c in conns):
            pump(conns, phase, expected, spans, deadline, next_due)
        elif next_due is not None:
            time.sleep(max(0.0, next_due - time.perf_counter()))


def run_closed_loop(conns, reqs, expected, spans, phase):
    """Keeps WINDOW_PER_CONN requests in flight per connection until done."""
    deadline = time.perf_counter() + 3 * IO_TIMEOUT_S
    nxt = 0

    def fill(conn):
        nonlocal nxt
        while nxt < len(reqs) and len(conn.pending) < WINDOW_PER_CONN:
            req = reqs[nxt]
            req["due"] = req["sent"] = time.perf_counter()
            conn.send(req)
            nxt += 1

    start = window_start = time.perf_counter()
    window_ok = phase.ok
    for c in conns:
        fill(c)
    while any(c.pending for c in conns):
        pump(conns, phase, expected, spans, deadline)
        for c in conns:
            fill(c)
        if phase.ok - window_ok >= RPS_WINDOW:
            now = time.perf_counter()
            phase.window_rps.append((phase.ok - window_ok) / (now - window_start))
            window_start, window_ok = now, phase.ok
    phase.elapsed_s += time.perf_counter() - start


# --- workload mixes --------------------------------------------------------------

def owner_mix(rng, count, tag, run_dir):
    cfg = WORKLOADS["owner-serve"]
    reqs = []
    for i in range(count):
        spec = rng.choices(cfg["specs"], cfg["spec_weights"])[0]
        model, quant = spec_parts(spec)
        rid = f"{tag}-{i}-{rng.randrange(1 << 30)}"
        if rng.random() < cfg["insert_share"]:
            codes = run_dir / f"{tag}-{i % CODES_SLOTS}.codes"
            params = (f"id={rid} model={model} quant={quant} seed-from-id=1 "
                      f"codes={codes}")
            reqs.append({"verb": "insert", "spec": spec, "id": rid, "params": params})
        else:
            params = (f"id={rid} model={model} quant={quant} "
                      f"record={art(spec, 'owner.rec')} codes={art(spec, 'owner.codes')}")
            reqs.append({"verb": "extract", "spec": spec, "id": rid, "params": params})
    return reqs


def read_request(spec, verb, rid, device):
    """A verify, extract or trace of the prepared artifacts of spec."""
    model, quant = spec_parts(spec)
    base = f"id={rid} model={model} quant={quant}"
    req = {"verb": verb, "spec": spec, "id": rid, "device": None}
    if verb == "verify":
        req["params"] = (f"{base} evidence={art(spec, 'owner.evid')} "
                         f"codes={art(spec, 'owner.codes')}")
    elif verb == "extract":
        req["params"] = (f"{base} record={art(spec, 'owner.rec')} "
                         f"codes={art(spec, 'owner.codes')}")
    else:
        req["device"] = f"edge-device-{device}"
        req["params"] = (f"{base} set={art(spec, 'fleet.fps')} "
                         f"codes={art(spec, 'fleet') / (req['device'] + '.codes')}")
    return req


def fleet_mix(rng, count, tag, devices):
    cfg = WORKLOADS["audit-fleet"]
    verbs = list(cfg["verb_weights"])
    weights = [cfg["verb_weights"][v] for v in verbs]
    reqs = []
    for i in range(count):
        spec = rng.choice(cfg["specs"])
        verb = rng.choices(verbs, weights)[0]
        rid = f"{tag}-{i}-{rng.randrange(1 << 30)}"
        reqs.append(read_request(spec, verb, rid, rng.randrange(devices)))
    return reqs


def warmup_requests(workload, tag):
    """One read-only request per spec: the requests setup_s waits for."""
    reqs = []
    for i, spec in enumerate(WORKLOADS[workload]["specs"]):
        verb = "extract" if workload == "owner-serve" else "verify"
        reqs.append(read_request(spec, verb, f"{tag}-warm-{i}", 0))
    return reqs


def replay_line(req, expected):
    if req["verb"] == "insert":
        expect = f"bits={expected['total_bits'][req['spec']]}"
    elif req["verb"] == "extract":
        expect = "wer=100"
    elif req["verb"] == "verify":
        expect = "verified=1"
    else:
        expect = f"device={req['device']}"
    return f"{req['verb']} {req['params']}\t{expect}\n"


# --- metrics scrapes ---------------------------------------------------------------

SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_exposition(text):
    samples = {}
    for line in text.splitlines():
        m = SAMPLE_RE.match(line.strip())
        if m and not line.startswith("#"):
            labels = dict(re.findall(r'(\w+)="([^"]*)"', m.group(2) or ""))
            key = (m.group(1), tuple(sorted(labels.items())))
            samples[key] = samples.get(key, 0.0) + float(m.group(3))
    return samples


def scrape(port, http):
    conn = Conn(port, http)
    try:
        if http:
            text = conn.roundtrip_raw(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n",
                                      b"# EOF")
            text = text.split("\r\n\r\n", 1)[1]
        else:
            text = conn.roundtrip_raw(b"metrics\n", b"# EOF")
    finally:
        conn.close()
    return parse_exposition(text)


def stats(port, http):
    conn = Conn(port, http)
    try:
        conn.send({"verb": "stats", "params": "id=perfbench-stats"})
        while conn.pending:
            done = conn.read_available()
            if done:
                return json.loads(done[0][1])
    finally:
        conn.close()


def metric_sum(samples, name, **labels):
    want = set(labels.items())
    return sum(v for (n, lab), v in samples.items() if n == name and want <= set(lab))


# --- workloads ----------------------------------------------------------------------

def add_delta(acc, before, after):
    """Adds the counter/histogram growth between two scrapes into acc."""
    for key, value in after.items():
        acc[key] = acc.get(key, 0.0) + value - before.get(key, 0.0)


def hist_mean_ms(acc, name, **labels):
    count = metric_sum(acc, name + "_count", **labels)
    return metric_sum(acc, name + "_sum", **labels) / count * 1e3 if count > 0 else 0.0


def segment(items, index):
    """The index-th of SEGMENTS contiguous, near-equal slices of items."""
    n = len(items)
    return items[n * index // SEGMENTS:n * (index + 1) // SEGMENTS]


def run_eval(args, result):
    """SEGMENTS driver processes, each timing its set-up, then checking ppl."""
    cfg = WORKLOADS["eval-ppl"]
    setups, rss_kb, lat, layer_samples = [], [], [], {}
    checks = 0
    seg_rps = []
    values = set()
    for seg in range(SEGMENTS):
        spans_path = result["run_dir"] / f"eval-{seg}.spans"
        cmd = [str(DRIVER), "eval", "--cache", str(ZOO),
               "--seconds", str(args.seconds / SEGMENTS), "--trace", str(args.trace),
               "--spans", str(spans_path)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env_with(cfg["threads"]), stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            if proc.stdout.readline().strip() != "ready":
                raise BenchError("eval driver did not become ready")
            setups.append(time.perf_counter() - start)
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            stop_process(proc)
        if proc.returncode != 0:
            raise BenchError(f"eval driver exited with {proc.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
        rss_kb.append(usage.ru_maxrss)
        lat += report["lat_ms"]
        checks += report["checks"]
        seg_rps.append(report["checks"] / report["loop_s"])
        values.add(report["ppl"])
        if not report["ppl_identical"]:
            values.add("differs within a process")
        for name, value in report.get("layers", {}).items():
            layer_samples.setdefault(name, []).append(value)
        result["span_files"].append(spans_path)
        result["meta"]["pool_threads"] = report["pool_threads"]

    ok = values == {PINNED_PPL}
    result["phases"] = {
        "setup": {"attempted": SEGMENTS, "ok": SEGMENTS, "failed": 0, "shed": 0,
                  "first_failure": None},
        "checks": {"attempted": checks, "ok": checks if ok else 0,
                   "failed": 0 if ok else checks, "shed": 0,
                   "first_failure": None if ok else f"ppl {sorted(values)} != {PINNED_PPL}"}}
    result["meta"]["ppl"] = sorted(values)
    result["checks"]["ppl_pinned"] = ok
    result["setup_samples_s"] = setups
    result["segment_rps"] = seg_rps
    result["e2e"] = {
        "setup_s": statistics.median(setups),
        "lat_p50_ms": statistics.median(lat),
        "peak_rps": statistics.median(seg_rps),
        "peak_rss_mb": statistics.median(rss_kb) / 1024.0,
    }
    if args.trace:
        layers = {name: statistics.median(v) for name, v in layer_samples.items()}
        untraced_ms = layers.pop("eval.untraced_ppl_ms")
        layers["trace.overhead_pct"] = 100.0 * (layers["eval.ppl_ms"] / untraced_ms - 1.0)
        pct, value = tail(lat)
        layers["client.lat_tail_ms"] = value
        layers["client.lat_samples"] = len(lat)
        result["meta"]["client.lat_tail_pct"] = pct
        result["layers"] = layers


def launch_server(workload, run_dir, tag):
    cfg = WORKLOADS[workload]
    args = ["--port", "0", "--cache", str(ZOO)]
    if workload == "audit-fleet":
        # Relative, so the Unix socket paths stay short whatever the checkout path.
        sock_dir = os.path.relpath(run_dir / f"s-{tag}", ROOT)
        args += ["--process-shards", "--shards", "2", "--socket-dir", sock_dir]
        banner = "supervisor on "
    else:
        args += ["--shards", "1"]
        banner = "listening on "
    return Server(args, cfg["threads"], run_dir / f"serve-{tag}.log", banner)


def warm(server, conns, workload, tag, expected, phase):
    """Sends one request per spec; returns seconds from launch to the last answer."""
    reqs = warmup_requests(workload, tag)
    for i, req in enumerate(reqs):
        req["due"] = req["sent"] = time.perf_counter()
        conns[i % len(conns)].send(req)
    deadline = time.perf_counter() + IO_TIMEOUT_S
    while any(c.pending for c in conns):
        pump(conns, phase, expected, None, deadline)
    return time.perf_counter() - server.start


def serving_mix(workload, rng, count, tag, run_dir, expected):
    if workload == "owner-serve":
        return owner_mix(rng, count, tag, run_dir)
    return fleet_mix(rng, count, tag, expected["devices"])


def run_serving(args, result, workload, expected):
    """SEGMENTS server launches; each is timed to warm, then serves one
    slice of the open-loop mix and one slice of the closed-loop mix."""
    cfg = WORKLOADS[workload]
    http = workload == "audit-fleet"
    run_dir = result["run_dir"]
    rng = random.Random(args.seed)
    arrivals = random.Random(f"arrivals-{args.seed}")
    open_reqs = serving_mix(workload, rng, int(cfg["rate_rps"] * args.seconds / 2), "o",
                            run_dir, expected)
    closed_reqs = serving_mix(workload, rng, cfg["closed_requests"], "c", run_dir, expected)
    traced_reqs = (serving_mix(workload, rng, cfg["closed_requests"], "t", run_dir, expected)
                   if args.trace else [])
    phases = {name: Phase(name) for name in ("setup", "open_loop", "closed_loop")}
    if args.trace:
        phases["closed_untraced"] = Phase("closed_untraced")
    spans = [] if args.trace else None
    setups, rss_kb, builds, seg_rps = [], [], [], []
    open_delta, shard_requests = {}, None
    respawns = retryable = 0.0

    for seg in range(SEGMENTS):
        server = launch_server(workload, run_dir, str(seg))
        conns = []
        try:
            conns = [Conn(server.port, http) for _ in range(CONNECTIONS)]
            setups.append(warm(server, conns, workload, str(seg), expected, phases["setup"]))
            gc.disable()
            ok_before = phases["closed_loop"].ok
            elapsed_before = phases["closed_loop"].elapsed_s
            if args.trace:
                before, stats_before = scrape(server.port, http), stats(server.port, http)
            with phase_span(spans, phases["open_loop"], seg):
                run_open_loop(conns, segment(open_reqs, seg), cfg["rate_rps"], expected,
                              spans, arrivals, phases["open_loop"])
            if args.trace:
                add_delta(open_delta, before, scrape(server.port, http))
                stats_after = stats(server.port, http)
                shard_growth = [s["engine"]["submitted"] - b["engine"]["submitted"]
                                for s, b in zip(stats_after["shards"], stats_before["shards"])]
                shard_requests = [a + b for a, b in zip(shard_requests or [0] * len(shard_growth),
                                                     shard_growth)]
                # Alternate which half runs first, so warm-up favours neither.
                runs = [(phases["closed_untraced"], None, segment(closed_reqs, seg)),
                        (phases["closed_loop"], spans, segment(traced_reqs, seg))]
                for phase, phase_spans, reqs in (runs if seg % 2 == 0 else runs[::-1]):
                    with phase_span(phase_spans, phase, seg):
                        run_closed_loop(conns, reqs, expected, phase_spans, phase)
            else:
                run_closed_loop(conns, segment(closed_reqs, seg), expected, None,
                                phases["closed_loop"])
            seg_rps.append((phases["closed_loop"].ok - ok_before) /
                           (phases["closed_loop"].elapsed_s - elapsed_before))
            final = scrape(server.port, http)
            builds.append(stats(server.port, http)["store"]["builds"])
            respawns += metric_sum(final, "emmark_supervisor_respawns_total")
            retryable += metric_sum(final, "emmark_supervisor_retryable_errors_total")
            rss_kb.append(server.rss_kb())
        finally:
            gc.enable()
            for c in conns:
                c.close()
            server.stop()

    open_phase, closed = phases["open_loop"], phases["closed_loop"]
    result["checks"]["builds_equal_specs"] = all(b == len(cfg["specs"]) for b in builds)
    result["checks"]["no_respawns"] = respawns == 0 and retryable == 0
    result["phases"] = {k: p.counts() for k, p in phases.items()}
    result["meta"]["pool_threads"] = cfg["threads"]
    result["meta"]["rate_rps"] = cfg["rate_rps"]
    result["setup_samples_s"] = setups
    result["segment_rps"] = seg_rps
    result["e2e"] = {
        "setup_s": statistics.median(setups),
        "lat_p50_ms": statistics.median(open_phase.lat_ms),
        "peak_rps": statistics.median(closed.window_rps),
        "peak_rss_mb": statistics.median(rss_kb) / 1024.0,
    }
    if not args.trace:
        return

    # Server-side layer metrics cover the open-loop phase: per-request costs
    # at a rate well under the knee, not the queueing of the closed loop.
    layers = {}
    for verb in VERBS:
        for stage in ("queue", "run", "flush"):
            layers[f"cli.{verb}.{stage}_ms"] = hist_mean_ms(
                open_delta, "emmark_request_latency_seconds", verb=verb, phase=stage)
    layers["wm.engine.queue_wait_ms"] = hist_mean_ms(open_delta, "emmark_engine_queue_wait_seconds")
    layers["wm.engine.exec_ms"] = hist_mean_ms(open_delta, "emmark_engine_exec_seconds")
    layers["net.poll_cycles_per_req"] = (
        metric_sum(open_delta, "emmark_server_poll_cycle_seconds_count") / open_phase.attempted)
    layers["model_zoo.lookup_hit_us"] = hist_mean_ms(
        open_delta, "emmark_store_lookup_hit_seconds") * 1e3
    layers["model_zoo.builds"] = statistics.median(builds)
    untraced = phases["closed_untraced"]
    layers["trace.overhead_pct"] = 100.0 * (
        statistics.median(untraced.window_rps) / result["e2e"]["peak_rps"] - 1.0)
    pct, value = tail(open_phase.lat_ms)
    layers["client.lat_tail_ms"] = value
    layers["client.lat_samples"] = len(open_phase.lat_ms)
    layers["client.gen_late_ms"] = max(open_phase.late_ms)
    result["meta"]["client.lat_tail_pct"] = pct
    if http:
        worker_total = hist_mean_ms(open_delta, "emmark_request_latency_seconds", phase="total")
        layers["net.supervisor_hop_ms"] = statistics.mean(open_phase.service_ms) - worker_total
        layers["net.retryable_errors"] = retryable
        layers["net.respawns"] = respawns
        layers["fleet.shard_share_max"] = max(shard_requests) / max(1, sum(shard_requests))
    result["spans"] = spans

    # In-process replay of the same seeded mix, one call per layer timed.
    mix_path = run_dir / "replay.mix"
    mix_path.write_text("".join(replay_line(r, expected) for r in open_reqs[:REPLAY_REQUESTS]))
    spans_path = run_dir / "replay.spans"
    out = subprocess.run([str(DRIVER), "replay", "--cache", str(ZOO), "--mix", str(mix_path),
                          "--spans", str(spans_path)],
                         env=env_with(cfg["threads"]), capture_output=True, text=True,
                         timeout=120, check=True)
    replay = json.loads(out.stdout.strip().splitlines()[-1])
    result["phases"]["replay"] = {"attempted": replay["attempted"],
                                  "ok": replay["attempted"] - replay["failed"],
                                  "failed": replay["failed"], "shed": 0,
                                  "first_failure": replay["first_failure"] or None}
    layers.update(replay["layers"])
    result["span_files"].append(spans_path)
    result["layers"] = layers


# --- output ---------------------------------------------------------------------------

END_TO_END = {"setup_s": "s", "lat_p50_ms": "ms", "peak_rps": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "model_zoo.zoo_ctor_ms": "ms", "model_zoo.ckpt_load_ms": "ms",
    "model_zoo.stats_load_ms": "ms", "quant.quantize_ms": "ms",
    "eval.ppl_ms": "ms", "tensor.gemm_ms": "ms", "quant.dequant_ms": "ms",
    "nn.attention_ms": "ms", "eval.softmax_nll_ms": "ms", "eval.other_ms": "ms",
    "eval.other_pct": "%", "tensor.gemm_gmac": "GMAC", "tensor.gemm_gmac_per_s": "GMAC/s",
    "quant.code_bytes": "bytes", "quant.dequant_gb_per_s": "GB/s",
    **{f"cli.{v}.{s}_ms": "ms" for v in VERBS for s in ("queue", "run", "flush")},
    "wm.engine.queue_wait_ms": "ms", "wm.engine.exec_ms": "ms",
    "net.poll_cycles_per_req": "count", "model_zoo.lookup_hit_us": "us",
    "model_zoo.builds": "count", "model_zoo.checkout_ms": "ms", "wm.insert_ms": "ms",
    "quant.save_codes_ms": "ms", "quant.load_codes_ms": "ms", "wm.extract_ms": "ms",
    "wm.evidence_load_ms": "ms", "wm.digest_ms": "ms", "wm.rederive_ms": "ms",
    "wm.trace_ms": "ms", "wm.fpset_load_ms": "ms", "quant.codes_mb_written": "MB",
    "net.supervisor_hop_ms": "ms", "net.retryable_errors": "count",
    "net.respawns": "count", "fleet.shard_share_max": "ratio",
    "client.lat_tail_ms": "ms", "client.lat_samples": "count",
    "client.gen_late_ms": "ms", "host.calib_ms": "ms", "trace.overhead_pct": "%",
}


def write_spans(result, args):
    """Writes the run's client and driver spans as JSON lines, one id space.

    Times are CLOCK_MONOTONIC nanoseconds (time.perf_counter on Linux, and
    steady_clock in the driver), so spans from every process line up.
    """
    spans_dir = WORK / "traces"
    spans_dir.mkdir(parents=True, exist_ok=True)
    path = spans_dir / f"{args.workload}-s{args.seed}.jsonl"
    client = result.get("spans") or []
    with open(path, "w") as out:
        for i, s in enumerate(client):
            out.write(json.dumps({"id": i, "name": s["name"], "start_ns": int(s["start"] * 1e9),
                                  "end_ns": int(s["end"] * 1e9), "parent": s["parent"],
                                  "request": s["request"]}) + "\n")
        offset = len(client)
        for extra in result["span_files"]:
            if not Path(extra).exists():
                continue
            lines = Path(extra).read_text().splitlines()
            for line in lines:
                rec = json.loads(line)
                rec["id"] += offset
                rec["parent"] = rec["parent"] + offset if rec["parent"] >= 0 else None
                out.write(json.dumps(rec) + "\n")
            offset += len(lines)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    run_dir = WORK / "runs" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    result = {"e2e": {}, "layers": {}, "phases": {}, "checks": {}, "run_dir": run_dir,
              "span_files": []}
    try:
        build()
        prepared = prepare()
        run_dir.mkdir(parents=True, exist_ok=True)
        expected = {"total_bits": {s: v["total_bits"] for s, v in prepared["specs"].items()},
                    "devices": min(v["devices"] for v in prepared["specs"].values())}
        host = calib()
        result["meta"] = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "kernel_level": host["kernel_level"], "git_commit": source_commit(),
            "source_sha256": source_digest(), "artifact_fs": filesystem_of(run_dir),
            "host.calib_ms": host["calib_ms"],
        }
        zoo_before = zoo_listing()
        if args.workload == "eval-ppl":
            run_eval(args, result)
        else:
            run_serving(args, result, args.workload, expected)
        result["checks"]["no_training_in_timed_run"] = zoo_listing() == zoo_before
        result["layers"]["host.calib_ms"] = host["calib_ms"]
        spans_file = write_spans(result, args) if args.trace else None
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        log(f"error: {exc!r}")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    phases = result["phases"]
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    correct = failed == 0 and attempted > 0 and all(result["checks"].values())
    if args.trace:
        metrics = {n: {"value": float(result["layers"].get(n, 0.0)), "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": float(result["e2e"][n]), "unit": u}
                   for n, u in END_TO_END.items()}
    detail = {"meta": result["meta"], "phases": phases, "checks": result["checks"],
              "e2e": result["e2e"], "setup_samples_s": result.get("setup_samples_s"),
              "segment_rps": result.get("segment_rps"), "spans": str(spans_file) if args.trace else None}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics}, indent=1))
    print("perfbench detail: " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
