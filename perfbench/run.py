#!/usr/bin/env python3
"""End-to-end benchmark of mdc_cli and the mdcd job service (mdc_cli serve).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a source checkout. The first run builds libmdc,
mdc_cli and perfbench/layer_probe.cc from that checkout into .bench_build/
(Release, failpoints compiled out: the release preset's settings); later
runs reuse the build. A directory without the sources fails with exit 2.

A run writes the project's seeded census microdata for --seed (through
layer_probe), times cold starts (setup_s), then drives its workload for
--seconds in a closed loop with one client, checking every output
(README.md in this directory lists the workloads and metrics). The last
line on stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0; with --trace 1 the
per-layer metrics, from a run with the program's counters written out,
plus the layer probe on the workload's own jobs. The run's spans are
written to .bench_build/traces/. Progress goes to stderr.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
CLI = CMAKE_DIR / "mdc" / "examples" / "example_mdc_cli"
PROBE = CMAKE_DIR / "layer_probe"

# The columns GenerateCensus writes (src/datagen/census_generator.h): five
# quasi-identifiers, of which only age is numeric, and a sensitive disease.
SCHEMA = ("age:int:qi,zip:string:qi,education:string:qi,marital:string:qi,"
          "occupation:string:qi,disease:string:sensitive")
QI_COLUMNS = 5
NUMERIC_QI = (0,)

# 10,000 rows is the smallest scale of the project's planned pipeline
# benchmark (ROADMAP.md item 1(d): 1e4 rows from datagen). k = 5 is the k
# of the ROADMAP.md stage profile and of EXPERIMENTS.md EXT-A.
ROWS = 10000
K = 5

# A job is (kind, algorithm list). MIX is every job kind the CLI and the
# daemon share: one Mondrian release, one rank-swap release, and the
# cross-family ranking of Mondrian, noise and rank swap.
MIX = [("anonymize", "mondrian"), ("perturb", "rankswap"),
       ("compare", "mondrian,noise,rankswap")]

# Each workload repeats one unit of work in a closed loop: one CLI process
# per job, or for `serve` one request that submits the whole mix to the
# daemon and waits for it. Why these three: `anonymize` is the
# single-release path of the paper's algorithms (parse, Mondrian, render,
# durable write); `compare` is the cross-family ranking path (perturbation,
# permutation model, all-pairs compare); `serve` repeats one dataset through
# the resident daemon, so its dataset and derived-model caches are hit,
# while both CLI workloads load cold.
WORKLOADS = {
    "anonymize": {"service": False, "jobs": MIX[:1]},
    "compare": {"service": False, "jobs": MIX[2:]},
    "serve": {"service": True, "jobs": MIX},
}

SETUP_REPS = 15
PROBE_REPS = 3
METRICS_PULLS = 20
JOB_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that leaves no result to print."""


class NotACheckout(BenchError):
    """The directory holds no program sources to build."""


# ---------------------------------------------------------------------------
# Build.

def build():
    needed = [ROOT / "CMakeLists.txt", ROOT / "src" / "CMakeLists.txt",
              ROOT / "examples" / "mdc_cli.cpp"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise NotACheckout("not a source checkout (missing "
                           + ", ".join(missing) + ")")
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", "-DMDC_FAILPOINTS=OFF"]
                     + generator)
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                  "example_mdc_cli", "layer_probe", "--parallel",
                  str(min(4, os.cpu_count() or 1))])
    with open(build_log, "ab") as out:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(step)} "
                                 f"(see {build_log})")


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Output checks. Every output is compared byte for byte with the first
# output of the same job, and that first output is checked here against
# the input, independently of the program.

def label_covers(label, value, numeric):
    """A Mondrian label is the exact value or a range: "[lo-hi]" over a
    numeric column, "[lo..hi]" (lexicographic) over a string column."""
    try:
        if label.startswith("[") and label.endswith("]"):
            low, high = label[1:-1].split("-" if numeric else "..", 1)
            if numeric:
                return float(low) <= float(value) <= float(high)
            return low <= value <= high
        return float(label) == float(value) if numeric else label == value
    except ValueError:
        return False


def check_k_anonymous(release_text, original, k):
    header, rows = parse_csv(release_text)
    if header != original[0] or len(rows) != len(original[1]):
        return "release shape differs from the input"
    groups = {}
    for row, source in zip(rows, original[1]):
        if row[QI_COLUMNS:] != source[QI_COLUMNS:]:
            return "release changed or reordered a non-QI column"
        for column in range(QI_COLUMNS):
            if not label_covers(row[column], source[column],
                                column in NUMERIC_QI):
                return (f"label {row[column]!r} does not cover "
                        f"{source[column]!r}")
        key = tuple(row[:QI_COLUMNS])
        groups[key] = groups.get(key, 0) + 1
    if min(groups.values()) < k:
        return f"release is not {k}-anonymous"
    return None


def check_rank_swap(release_text, original):
    header, rows = parse_csv(release_text)
    if header != original[0] or len(rows) != len(original[1]):
        return "release shape differs from the input"
    for column in NUMERIC_QI:
        swapped = sorted(float(row[column]) for row in rows)
        source = sorted(float(row[column]) for row in original[1])
        if swapped != source:
            return "rank swapping changed a column's values, not only ranks"
    kept = [c for c in range(len(header)) if c not in NUMERIC_QI]
    for row, source in zip(rows, original[1]):
        if any(row[c] != source[c] for c in kept):
            return "rank swapping touched a non-numeric column"
    return None


def check_compare(report, rows, names):
    lines = report.splitlines()
    expected = f"permutation comparison ({len(names)} releases, N={rows})"
    if not lines or lines[0] != expected:
        return f"report header is not {expected!r}"
    for name in names:
        if not any(line.startswith(f"dominance wins: {name}=")
                   for line in lines):
            return f"report has no ranking for {name}"
    return None


def check_first_output(kind, names, text, original, k):
    if kind == "compare":
        return check_compare(text, len(original[1]), names.split(","))
    if kind == "perturb":
        return check_rank_swap(text, original)
    return check_k_anonymous(text, original, k)


# ---------------------------------------------------------------------------
# Processes.

def wait_reaped(proc, timeout):
    """Waits for `proc` with os.wait4, so its own rusage (CPU time, peak
    RSS) comes back; kills it if it outlives `timeout`."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_cli(argv, cwd, stdout_path):
    """Runs one mdc_cli job; returns (seconds, exit code, rusage)."""
    with open(stdout_path, "wb") as out, \
            open(cwd / "cli.stderr", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(CLI)] + argv, cwd=cwd, stdout=out,
                                stderr=err)
        usage = wait_reaped(proc, JOB_TIMEOUT_S)
        elapsed = time.perf_counter() - start
    return elapsed, proc.returncode, usage


def cli_argv(kind, names, seed):
    common = ["--input", "data.csv", "--schema", SCHEMA, "--k", str(K)]
    if kind == "anonymize":
        return (["anonymize"] + common +
                ["--algorithm", names, "--output", f"out-{names}.csv"])
    if kind == "perturb":
        return (["perturb"] + common +
                ["--mechanism", names, "--seed", str(seed),
                 "--output", f"out-{names}.csv"])
    return ["compare"] + common + ["--algorithms", names, "--seed", str(seed)]


def cli_output(kind, names, work, stdout_path):
    if kind == "compare":
        return stdout_path.read_bytes()
    return (work / f"out-{names}.csv").read_bytes()


class Daemon:
    """One `mdc_cli serve` daemon, driven line by line over its stdin and
    stdout through the protocol every front-end shares. (The socket
    front-end answers `wait` from a 20 ms idle poll, which would round
    every request up to that grid.)"""

    def __init__(self, work):
        self.work = work
        self.usage = None
        self.buffer = b""
        with open(work / "daemon.stderr", "ab") as err:
            self.proc = subprocess.Popen(
                [str(CLI), "serve", "--state-dir", "state"],
                cwd=work, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err)
        try:
            banner = self._read_line()
            if not banner.startswith("ready "):
                raise BenchError(f"unexpected daemon banner {banner!r}")
        except BaseException:
            self.proc.kill()
            self.stop()
            raise

    def _read_line(self):
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while b"\n" not in self.buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError("daemon reply timed out")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError("daemon closed its stdout")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def request(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        return self._read_line()

    def cpu_seconds(self):
        """CPU time of the daemon's live threads, from the scheduler's
        nanosecond runtime counters."""
        total = 0
        for task in (Path("/proc") / str(self.proc.pid) / "task").iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (OSError, IndexError, ValueError):
                pass  # The thread ended between listing and reading.
        return total / 1e9

    def stop(self):
        """EOF on stdin drains the daemon; returns its exit code."""
        if self.proc.returncode is None:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            self.usage = wait_reaped(self.proc, 30)
        self.proc.stdout.close()
        return self.proc.returncode


def submit_line(job_id, kind, names, seed):
    key = {"anonymize": "algorithm", "perturb": "mechanism",
           "compare": "algorithms"}[kind]
    return (f"submit {job_id} kind={kind} input=data.csv schema={SCHEMA} "
            f"k={K} seed={seed} {key}={names}")


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Workloads.

class Run:
    def __init__(self, name, seed, seconds, trace):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = BUILD / "runs" / f"{name}-{seed}-{os.getpid()}"
        self.epoch = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.references = {}  # (kind, names) -> sha256 of the first output
        self.setup = []       # Seconds from a cold start to the first unit.
        self.latencies = []   # Milliseconds per timed unit.
        self.cpu = []         # Program CPU milliseconds per timed unit.
        self.rss_kb = []
        self.admit = []       # Service: submit -> ack, per job.
        self.wait = []        # Service: last ack -> `ok wait idle`.
        self.pull = []        # Service: `metrics` round trip.
        self.counters = {}    # The program's own counters, per unit.
        self.svc_counters = {}  # The daemon's counters, pulled live.
        self.spans = []       # Chrome-trace events of the timed units.

    def fail(self, message):
        self.failed += 1
        log(f"FAILED: {message}")

    def prepare(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        data = self.work / "data.csv"
        result = subprocess.run(
            [str(PROBE), "census", str(ROWS), str(self.seed), str(data)],
            capture_output=True, timeout=JOB_TIMEOUT_S)
        if result.returncode != 0:
            raise BenchError("census generation failed: "
                             + result.stderr.decode().strip())
        self.original = parse_csv(data.read_text())

    def cold_dir(self, rep):
        cold = self.work / f"cold-{rep}"
        cold.mkdir()
        shutil.copy(self.work / "data.csv", cold / "data.csv")
        return cold

    def record(self, kind, names, output):
        key = (kind, names)
        if key not in self.references:
            problem = check_first_output(kind, names, output.decode(),
                                         self.original, K)
            if problem:
                self.fail(f"{kind} {names}: {problem}")
                return
            self.references[key] = hashlib.sha256(output).hexdigest()
        elif hashlib.sha256(output).hexdigest() != self.references[key]:
            self.fail(f"{kind} {names}: output differs from the first run")

    def span(self, start, end):
        self.spans.append({
            "name": self.name, "cat": "bench", "ph": "X", "pid": 1,
            "tid": 1, "ts": int((start - self.epoch) * 1e6),
            "dur": int((end - start) * 1e6)})

    def run_job(self, kind, names, work, traced=False):
        """One mdc_cli process; returns its CPU seconds."""
        self.attempted += 1
        argv = cli_argv(kind, names, self.seed)
        if traced:
            argv += ["--metrics-out", "metrics.json"]
        stdout_path = work / "stdout.txt"
        _, code, usage = run_cli(argv, work, stdout_path)
        self.rss_kb.append(usage.ru_maxrss)
        try:
            output = cli_output(kind, names, work, stdout_path)
        except OSError as error:
            output = None
            self.fail(f"mdc_cli {kind} {names}: {error}")
        if code != 0:
            self.fail(f"mdc_cli {kind} {names} exited {code}")
        elif output is not None:
            self.record(kind, names, output)
        return usage.ru_utime + usage.ru_stime

    # -- CLI workloads ------------------------------------------------------

    def cli_unit(self, work, traced=False):
        start = time.perf_counter()
        cpu = sum(self.run_job(kind, names, work, traced)
                  for kind, names in self.spec["jobs"])
        return start, time.perf_counter(), cpu

    def run_cli_workload(self):
        for rep in range(SETUP_REPS):
            start, end, _ = self.cli_unit(self.cold_dir(rep))
            self.setup.append(end - start)
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline:
            start, end, cpu = self.cli_unit(self.work, traced=self.trace)
            self.latencies.append((end - start) * 1000)
            self.cpu.append(cpu * 1000)
            self.span(start, end)
        if self.trace:
            snapshot = json.loads((self.work / "metrics.json").read_text())
            self.counters = snapshot["counters"]

    # -- Service workload ---------------------------------------------------

    def service_unit(self, daemon, serial):
        """One request: submit the workload's jobs, then `wait` until
        idle."""
        jobs = []
        start = time.perf_counter()
        for index, (kind, names) in enumerate(self.spec["jobs"]):
            self.attempted += 1
            job_id = f"r{serial}-{index}"
            sent = time.perf_counter()
            reply = daemon.request(submit_line(job_id, kind, names, self.seed))
            self.admit.append((time.perf_counter() - sent) * 1000)
            if reply != f"ok {job_id} admitted":
                self.fail(f"submit {job_id}: {reply}")
                continue
            jobs.append((job_id, kind, names))
        acked = time.perf_counter()
        reply = daemon.request("wait")
        end = time.perf_counter()
        self.wait.append((end - acked) * 1000)
        if reply != "ok wait idle":
            self.fail(f"wait: {reply}")
        for job_id, kind, names in jobs:
            artifact = daemon.work / "state" / "artifacts" / job_id
            if not artifact.exists():
                self.fail(f"job {job_id} ({kind} {names}) left no artifact")
                continue
            self.record(kind, names, artifact.read_bytes())
            artifact.unlink()  # Consumed; keeps the state dir small.
        return start, end

    def run_service_workload(self):
        # The references come from mdc_cli: a job the daemon serves must
        # produce the same bytes as the same job run by the CLI.
        for kind, names in self.spec["jobs"]:
            self.run_job(kind, names, self.work)
        self.rss_kb.clear()
        daemon = None
        serial = 0
        try:
            for rep in range(SETUP_REPS):
                if daemon is not None:
                    self.stop_daemon(daemon)
                start = time.perf_counter()
                daemon = Daemon(self.cold_dir(rep))
                _, end = self.service_unit(daemon, serial)
                serial += 1
                self.setup.append(end - start)
            self.admit.clear()
            self.wait.clear()
            deadline = time.perf_counter() + self.seconds
            while time.perf_counter() < deadline:
                cpu_before = daemon.cpu_seconds()
                start, end = self.service_unit(daemon, serial)
                self.cpu.append((daemon.cpu_seconds() - cpu_before) * 1000)
                serial += 1
                self.latencies.append((end - start) * 1000)
                self.span(start, end)
            if self.trace:
                counters = self.pull_metrics(daemon)
                units = counters.get("svc.completed", 0) / len(MIX)
                self.counters = {name: value / max(units, 1)
                                 for name, value in counters.items()}
        finally:
            if daemon is not None:
                self.stop_daemon(daemon)
        self.rss_kb.append(daemon.usage.ru_maxrss)

    def pull_metrics(self, daemon):
        """Pulls the daemon's live metrics; returns its counters."""
        for _ in range(METRICS_PULLS):
            sent = time.perf_counter()
            reply = daemon.request("metrics")
            self.pull.append((time.perf_counter() - sent) * 1000)
        if not reply.startswith("ok metrics {"):
            self.fail(f"metrics pull: {reply[:80]}")
            return {}
        self.svc_counters = json.loads(reply[len("ok metrics "):])["counters"]
        return self.svc_counters

    def stop_daemon(self, daemon):
        code = daemon.stop()
        if code != 0:
            self.fail(f"daemon exited {code}")

    # -- Per-layer probe ----------------------------------------------------

    def probe(self):
        """Times the library layers of the workload's own jobs on this
        run's dataset with layer_probe."""
        argv = [str(PROBE), "--input", "data.csv", "--schema", SCHEMA,
                "--k", str(K), "--seed", str(self.seed),
                "--reps", str(PROBE_REPS), "--out-dir", "."]
        for kind, names in self.spec["jobs"]:
            probe_kind = "compare" if kind == "compare" else "anonymize"
            argv += ["--job", f"{probe_kind}:{names}"]
        result = subprocess.run(argv, cwd=self.work, capture_output=True,
                                timeout=JOB_TIMEOUT_S * 2)
        if result.returncode != 0:
            raise BenchError("layer probe failed: "
                             + result.stderr.decode().strip())
        return json.loads(result.stdout)

    # -- Results ------------------------------------------------------------

    def end_to_end(self):
        return {
            "latency_p90_ms": percentile90(self.latencies),
            "peak_rss_mb": statistics.median(self.rss_kb) / 1024,
            "setup_s": statistics.median(self.setup),
        }

    def per_layer(self, probe):
        svc = self.svc_counters

        def ratio(hits, other):
            total = svc.get(hits, 0) + svc.get(other, 0)
            return svc.get(hits, 0) / total if total else 0.0

        values = {f"{layer}_ms": ms for layer, ms in probe["layers_ms"].items()}
        values.update({
            "traced_latency_mean_ms": statistics.mean(self.latencies),
            "cpu_ms": statistics.median(self.cpu),
            "svc_admit_ms": median_or_zero(self.admit),
            "svc_wait_ms": median_or_zero(self.wait),
            "svc_pull_ms": median_or_zero(self.pull),
            "cache_hit_ratio": ratio("svc.cache.hits", "svc.cache.misses"),
            "model_hit_ratio": ratio("svc.cache.model_hits",
                                     "svc.cache.model_puts"),
            "perm_rows_ranked": self.counters.get("perm.rows_ranked", 0),
            "cmp_elements": self.counters.get("cmp.elements", 0),
        })
        return values

    def write_trace(self, probe):
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{self.name}-seed{self.seed}.json"
        path.write_text(json.dumps(
            {"traceEvents": self.spans + probe["traceEvents"]}))
        log(f"spans written to {path.relative_to(ROOT)}")


def percentile90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run = None
    try:
        build()
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
        run.prepare()
        log(f"{args.workload}: seed {args.seed}, {ROWS} rows, "
            f"{args.seconds:g} s")
        if run.spec["service"]:
            run.run_service_workload()
        else:
            run.run_cli_workload()
        if not run.latencies:
            raise BenchError("no unit of work completed in the timed phase")
        if args.trace:
            probe = run.probe()
            run.write_trace(probe)
            values, kind = run.per_layer(probe), "per_layer"
        else:
            values, kind = run.end_to_end(), "end_to_end"
    except NotACheckout as error:
        log(f"error: {error}")
        return 2
    except BenchError as error:
        log(f"error: {error}")
        return 1
    finally:
        if run is not None:
            shutil.rmtree(run.work, ignore_errors=True)
    log(f"{len(run.latencies)} units timed, {run.failed} failed")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
