#!/usr/bin/env python3
"""Benchmark of the seaweeds package, timed from outside the package.

Usage:
    python3 perfbench/run.py --workload {query,catalog,oracle} --seed N
                             --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  Each
workload is a closed loop with one client that repeats whole passes for
about S seconds (at most half a pass over) and until at least MIN_SAMPLES
jobs were timed.  A query pass draws fresh seeded inputs; the catalog and
oracle workloads draw theirs once and repeat them in a new order each
pass.  A catalog pass scans every type, then censuses all their entries in
one shuffled sequence.  The benchmark and the CLI processes it starts run
on one core.  Every job's output is checked; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are end to end.  Every time in them is scaled
to a host on which the reference computation of reference.py takes
reference.REFERENCE_S: the benchmark times that computation between jobs
(at most every SAMPLE_EVERY_S) and scales each job's time by the samples
taken around it, so that a slow spell of a shared host does not read as a
slow program.
    setup_s           median over SETUP_REPEATS fresh interpreters of the
                      time `import seaweeds.cli` takes, each scaled by the
                      reference time in the same interpreter
    peak_rss_mb       getrusage max RSS: of the CLI children for query, of
                      this process for catalog and oracle
    latency_p50_ms    median and 90th percentile of one job's wall time:
    latency_p90_ms    a CLI request in a fresh process (query), the census
                      of one catalog entry (catalog), an in-process
                      `seaweed oracle` run (oracle)
    throughput_per_s  jobs per second of job time (query, oracle); subset
                      pairs per second of `seaweed enumerate` time (catalog)

With --trace 1 the run makes the same passes twice, untraced and then with
every layer's public functions wrapped (layertrace.py), and reports calls,
self time and counters per layer plus the tracing overhead.  The full
per-function table goes to stderr and to perfbench/out/.  Self times are
not scaled; host.reference_ms is the median reference time of the run.
"""
from __future__ import annotations

import argparse
import bisect
import compileall
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import inputs
import layertrace
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 1
MIN_SAMPLES = 100
SETUP_REPEATS = 21
REQUEST_TIMEOUT_S = 60
SAMPLE_EVERY_S = 0.2       # least time between two reference samples
SPEED_NEIGHBOURS = 5       # samples on each side of a job that scale it

# Catalog sizes: E6-E8 are the paper's counts, D8 and A9 the seed commit's.
EXPECTED_COUNTS = {"E6": 74, "E7": 143, "E8": 301, "D8": 292, "A9": 570}

# Functions reported with calls and self time.  A workload that does not
# call one reports 0 for both.  The full table has every other function.
LAYER_FUNCTIONS = (
    "cli.main", "cli.build_parser",
    "rootsys.build_root_system", "rootsys.classify_component",
    "rootsys.sub_positive_roots",
    "meander.components", "meander.involution", "meander.orbits",
    "meander.is_frobenius", "meander.u_turn_report",
    "spectrum.simple_eigenvalues", "spectrum.component_spectrum",
    "spectrum.full_spectrum", "spectrum.seaweed_dimension",
    "linalg.solve_unique", "linalg.rank_mod_p", "linalg.rank_int_rows",
    "oracle.realize_type_a", "oracle.index", "oracle.kirillov_matrix",
    "oracle.principal_element", "oracle.ad_spectrum",
    "enumerate.enumerate_frobenius", "enumerate.spectrum_census",
    "enumerate.verify_entry",
)
# Layers reported as one total over all their functions.
LAYER_TOTALS = ("seaweed",)

clock = time.perf_counter


def load_package():
    """Import seaweeds from ./src, refusing any other copy."""
    if not (SRC / "seaweeds" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'seaweeds'}")
    sys.path.insert(0, str(SRC))
    import seaweeds
    import seaweeds.cli  # noqa: F401  (not imported by the package itself)
    if Path(seaweeds.__file__).resolve().parent != SRC / "seaweeds":
        sys.exit(f"error: seaweeds imported from {seaweeds.__file__}")
    # Bytecode is written once, as an installed package's would be, so that
    # no CLI process compiles the package whatever PYTHONDONTWRITEBYTECODE is.
    compileall.compile_dir(SRC / "seaweeds", quiet=1)
    return seaweeds


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> float:
    """Median time a fresh interpreter takes to import the CLI, timed inside
    the interpreter so that process start-up stalls stay out of it.  Each
    import time is scaled by the median of three reference samples taken in
    the same interpreter after the import, and a first one to warm it up."""
    probe = ("import sys, time; t = time.perf_counter(); import seaweeds.cli; "
             "took = time.perf_counter() - t; "
             f"sys.path.insert(0, {str(BENCH)!r}); "
             "import reference, statistics; reference.work(); "
             "ref = statistics.median(reference.seconds() for _ in range(3)); "
             "print(took * reference.REFERENCE_S / ref)")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                              cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=REQUEST_TIMEOUT_S)
        times.append(float(proc.stdout))
    return statistics.median(times)


class HostSpeed:
    """Reference samples taken between jobs, and the scale they give."""

    def __init__(self) -> None:
        reference.work()                # warm-up, not recorded
        self.at: list[float] = []       # midpoint of each sample
        self.took: list[float] = []     # its wall seconds

    def sample(self, force: bool = False) -> None:
        """Time the reference, unless a sample was taken less than
        SAMPLE_EVERY_S ago and `force` is false."""
        if not force and self.at and clock() - self.at[-1] < SAMPLE_EVERY_S:
            return
        start = clock()
        reference.work()
        end = clock()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` of a job that began at `start`, as on a host where the
        reference takes REFERENCE_S: scaled by the median of the samples
        taken during the job and SPEED_NEIGHBOURS on each side of it."""
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_right(self.at, start + seconds)
        near = self.took[max(0, i - SPEED_NEIGHBOURS):j + SPEED_NEIGHBOURS]
        return seconds * reference.REFERENCE_S / statistics.median(near)

    def reference_ms(self) -> float:
        return statistics.median(self.took) * 1e3


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def csv(values) -> str:
    """A composition or subset as a CLI argument; "-" when empty."""
    return ",".join(map(str, values)) or "-"


class Run:
    """Job outcomes, latencies, host speed and stdout digests of one
    benchmark run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[tuple[float, float]] = []  # (start, seconds)
        self.speed = HostSpeed()
        self.digests: dict[str, str] = json.loads(DIGESTS.read_text())
        self.profile: Profile | None = None

    def job(self, label: str, check, *args) -> None:
        """Count one job; `check` raises or returns a failure reason."""
        self.attempted += 1
        try:
            reason = check(*args)
        except Exception as exc:    # a broken output is a failed job
            reason = f"{type(exc).__name__}: {exc}"
        if reason:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {reason}")

    def timed(self, start: float) -> None:
        """Record the latency of a job that began at `start`."""
        self.latencies.append((start, clock() - start))

    def scaled(self) -> list[float]:
        """Every latency, scaled to the reference host speed."""
        return [self.speed.scale(*latency) for latency in self.latencies]

    def digest(self, key: str, text: str, always: bool = False) -> str | None:
        """Compare stdout with the seed commit's, at the default seed (or
        for inputs that do not depend on the seed)."""
        if not (always or self.seed == DEFAULT_SEED):
            return None
        want = self.digests.get(key)
        if want is None:
            return f"no recorded digest for {key!r}"
        if sha256(text) != want:
            return "stdout differs from the seed commit"
        return None


def passes(make_pass, run_job, run: Run, seconds: float = 0.0,
           min_samples: int = 1, count: int | None = None) -> tuple[int, float]:
    """Run whole passes: `count` of them, or as many as bring the run
    closest to `seconds` once `min_samples` jobs were timed, so that a run
    overshoots by at most half a pass.  The host speed is sampled between
    jobs and once after the last.  Returns the number of passes and their
    wall seconds scaled to the reference host speed."""
    start = clock()
    k = 0
    while True:
        began = clock()
        for job in make_pass(k):
            run.speed.sample()
            run_job(job, k)
        run.speed.sample(force=True)
        k += 1
        now = clock()
        if count is not None:
            if k == count:
                break
        elif (now - start + (now - began) / 2 >= seconds
              and len(run.latencies) >= min_samples):
            break
    return k, run.speed.scale(start, clock() - start)


# ---------------------------------------------------------------- query

def query_argv(kind: str, pair) -> list[str]:
    fam, n, a, b = pair
    return [kind, "--type", fam, "--rank", str(n), f"--top-comp={csv(a)}",
            f"--bottom-comp={csv(b)}", "--format", "json"]


def check_query(run: Run, kind: str, pair, argv, k: int, proc) -> str | None:
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    data = json.loads(proc.stdout)
    if kind == "check":
        if data["frobenius"] is not True:
            return "winding-generated seaweed reported not Frobenius"
    else:
        mult = {e["k"]: e["mult"] for e in data["eigenvalues"]}
        ks = sorted(mult)
        if not (0 in mult and 1 in mult and ks == list(range(ks[0], ks[-1] + 1))):
            return f"spectrum {ks} is broken"
        if any(mult.get(1 - e, 0) != m for e, m in mult.items()):
            return "spectrum is not symmetric about one half"
        dim = inputs.seaweed_dimension(*pair)
        if sum(mult.values()) != dim or data["dimension"] != dim:
            return f"dimension {data['dimension']} != closed form {dim}"
        if not (data["unbroken"] and data["symmetric"]):
            return "spectrum JSON flags disagree with its eigenvalues"
    return run.digest(" ".join(argv), proc.stdout) if k == 0 else None


def run_query(run: Run, seconds: float, trace: bool) -> dict:
    env = child_env()
    reqdir = OUT / "requests"
    dumps: list[dict] = []

    def request(job, k, traced):
        kind, pair = job
        argv = query_argv(kind, pair)
        if traced:
            rid = run.attempted
            out = reqdir / f"{rid}.json"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(out),
                   str(rid)] + argv
        else:
            cmd = [sys.executable, "-m", "seaweeds.cli"] + argv
        start = clock()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess(cmd, "timeout", "", "")
        run.timed(start)
        if traced and out.is_file():
            dumps.append(json.loads(out.read_text()))
            out.unlink()
        run.job(" ".join(argv), check_query, run, kind, pair, argv, k, proc)

    def make_pass(k):
        return inputs.query_pass(run.seed, k)

    if not trace:
        passes(make_pass, lambda j, k: request(j, k, False), run, seconds,
               MIN_SAMPLES)
        return {"throughput_per_s": (len(run.latencies)
                                     / sum(run.scaled()), "1/s"),
                "peak_rss_mb": (rss_mb(resource.RUSAGE_CHILDREN), "MB")}
    n, plain = passes(make_pass, lambda j, k: request(j, k, False), run,
                      seconds / 2)
    reqdir.mkdir(parents=True, exist_ok=True)
    _, traced = passes(make_pass, lambda j, k: request(j, k, True), run,
                       count=n)
    run.profile = Profile()
    for data in dumps:
        run.profile.merge(data)
    return run.profile.metrics(plain, traced)


# --------------------------------------------------------------- in-process

def call_cli(seaweeds, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = seaweeds.cli.main(argv)
    return code, out.getvalue()


class Profile:
    """Per-layer totals gathered from one or more tracers."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.caches = {name: [0, 0] for name in layertrace.RATIO_CACHES}
        self.spans: list = []
        self.dropped = 0
        self.scan = [0, 0]          # is_frobenius calls and hits in scans
        self.census = [0, 0]        # solve_unique calls, seaweeds censused
        self.walls = (0.0, 0.0)     # untraced and traced seconds

    def merge(self, data: dict) -> None:
        for name, (calls, self_s) in data["stats"].items():
            acc = self.stats.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in data["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        self.add_caches(data["caches"])
        offset = len(self.spans)
        self.spans.extend(
            (name, start, end, parent + offset if parent >= 0 else -1, rid)
            for name, start, end, parent, rid in data["spans"])
        self.dropped += data["dropped"]

    def add_caches(self, counts: dict) -> None:
        for name, (hits, misses) in counts.items():
            self.caches[name][0] += hits
            self.caches[name][1] += misses

    def metrics(self, plain_s: float, traced_s: float) -> dict:
        """Per-layer metrics; the overhead is traced minus untraced wall
        time of the same passes, both scaled to the reference host speed."""
        def calls(name):
            return self.stats.get(name, [0, 0.0])[0]

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_s"] = (self.stats.get(name, [0, 0.0])[1], "s")
        for layer in LAYER_TOTALS:
            mine = [v for n, v in self.stats.items()
                    if n.startswith(layer + ".")]
            out[f"{layer}.calls"] = (sum(c for c, _ in mine), "count")
            out[f"{layer}.self_s"] = (sum(t for _, t in mine), "s")
        for name, (hits, misses) in self.caches.items():
            out[f"{name}.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
        out["enumerate.pairs_scanned"] = (self.scan[0], "count")
        out["enumerate.frobenius_hit_ratio"] = (
            ratio(self.scan[1], self.scan[0]), "ratio")
        out["oracle.exact_fallback_ratio"] = (
            ratio(calls("linalg.rank_int_rows"), calls("linalg.rank_mod_p")),
            "ratio")
        out["spectrum.solves_per_census_seaweed"] = (
            ratio(self.census[0], self.census[1]), "ratio")
        out["rootsys.positive_roots_built"] = (
            self.counts.get("rootsys.positive_roots_built", 0), "count")
        self.walls = (plain_s, traced_s)
        out["trace.overhead_s"] = (traced_s - plain_s, "s")
        out["trace.spans"] = (len(self.spans) + self.dropped, "count")
        return out

    def report(self, workload: str) -> None:
        """The full per-function table to stderr and perfbench/out/."""
        OUT.mkdir(parents=True, exist_ok=True)
        table = sorted(self.stats.items(), key=lambda kv: -kv[1][1])
        print("untraced {:.3f} s, traced {:.3f} s".format(*self.walls),
              file=sys.stderr)
        print(f"{'function':40} {'calls':>10} {'self_s':>10}", file=sys.stderr)
        for name, (calls, self_s) in table:
            if calls:
                print(f"{name:40} {calls:10d} {self_s:10.4f}", file=sys.stderr)
        summary = {"functions": {n: {"calls": c, "self_s": s}
                                 for n, (c, s) in table},
                   "walls_s": self.walls, "counts": self.counts,
                   "caches": self.caches,
                   "spans_kept": len(self.spans), "spans_dropped": self.dropped}
        (OUT / f"trace-{workload}.json").write_text(
            json.dumps(summary, indent=1) + "\n")
        layertrace.write_spans(OUT / f"spans-{workload}.jsonl", self.spans)


def in_process(run: Run, seconds: float, trace: bool, make_pass, run_job,
               extra) -> dict:
    """Shared loop of the catalog and oracle workloads.

    `make_pass(rng)` gives one pass's jobs as (fresh, job) pairs, in an
    order drawn from `rng`, which is seeded anew for every pass.  A fresh
    job starts as a new `seaweed` process would, with the package caches
    empty and no garbage left by earlier jobs, so the work of a pass does
    not depend on its order; every pass, and the untraced and traced halves
    of a traced run, do the same work.
    """
    caches = layertrace.lru_caches()
    profile = Profile()
    tracer = None

    def clear():
        if tracer is not None:
            profile.add_caches(layertrace.cache_counts(caches))
        for fn in caches.values():
            fn.cache_clear()
        gc.collect()

    def make(k):
        return make_pass(random.Random(f"order/{run.seed}/{k}"))

    def job(item, k):
        fresh, j = item
        if fresh:
            clear()
        if tracer is not None:
            tracer.request = run.attempted
        run_job(j, k, tracer, profile)

    if not trace:
        passes(make, job, run, seconds, MIN_SAMPLES)
        metrics = extra()
        metrics["peak_rss_mb"] = (rss_mb(resource.RUSAGE_SELF), "MB")
        return metrics
    n, plain = passes(make, job, run, seconds / 2)
    clear()
    tracer = layertrace.Tracer()
    tracer.install()
    _, traced = passes(make, job, run, count=n)
    clear()
    profile.merge({"stats": tracer.stats, "counts": tracer.counts,
                   "caches": {}, "spans": tracer.spans,
                   "dropped": tracer.dropped})
    run.profile = profile
    return profile.metrics(plain, traced)


# -------------------------------------------------------------- catalog

def run_catalog(seaweeds, run: Run, seconds: float, trace: bool) -> dict:
    from seaweeds.enumerate import Catalog
    from seaweeds.rootsys import LieType
    from seaweeds.seaweed import Seaweed
    scan = {"pairs": 0, "times": []}       # times: (start, seconds)

    def check_scan(name, code, text):
        if code != 0:
            return f"exit {code}"
        data = json.loads(text)
        if data["count"] != EXPECTED_COUNTS[name]:
            return f"count {data['count']} != {EXPECTED_COUNTS[name]}"
        if name == "E6" and data["appendix_a"]["match"] is not True:
            return "E6 catalog differs from Appendix A"
        return run.digest(f"enumerate {name}", text, always=True)

    def check_census(report):
        if report.checked != 1 or not report.ok():
            return "; ".join(report.failures) or "entry not checked"
        return None

    def scan_job(name, entries, tracer, profile):
        lie = LieType.parse(name)
        argv = (["enumerate", "--type", name] if lie.family in "EFG" else
                ["enumerate", "--type", lie.family, "--rank", str(lie.rank)])
        if name == "E6":
            argv.append("--check-appendix-a")
        before = (tracer.calls("meander.is_frobenius"),
                  tracer.counts["meander.is_frobenius.true"]) if tracer else None
        start = clock()
        code, text = call_cli(seaweeds, argv)
        scan["times"].append((start, clock() - start))
        scan["pairs"] += 3 ** lie.rank
        if tracer:
            profile.scan[0] += tracer.calls("meander.is_frobenius") - before[0]
            profile.scan[1] += (tracer.counts["meander.is_frobenius.true"]
                                - before[1])
        run.job(name, check_scan, name, code, text)
        if code != 0:
            return
        rs = seaweeds.rootsys.build_root_system(lie)
        entries.extend(Seaweed(rs, frozenset(e["pi1"]), frozenset(e["pi2"]))
                       for e in json.loads(text)["entries"])

    def census_job(s, tracer, profile):
        solves = tracer.calls("linalg.solve_unique") if tracer else 0
        start = clock()
        report = seaweeds.enumerate.spectrum_census(
            Catalog(s.root_system.lie_type, (s,)))
        run.timed(start)
        run.job(f"census {s!r}", check_census, report)
        if tracer:
            profile.census[0] += tracer.calls("linalg.solve_unique") - solves
            profile.census[1] += 1

    def run_job(job, k, tracer, profile):
        if job[0] == "scan":
            scan_job(job[1], job[2], tracer, profile)
        else:
            census_job(job[1], tracer, profile)

    def make_pass(rng):
        """Every type's scan from empty caches, then the census of all their
        entries from empty caches in one shuffled sequence, so that the
        census latencies of every type sample the whole census phase."""
        types = list(inputs.CATALOG_TYPES)
        rng.shuffle(types)
        entries: list = []
        for name in types:
            yield True, ("scan", name, entries)
        rng.shuffle(entries)
        for i, s in enumerate(entries):
            yield i == 0, ("census", s)

    def extra():
        seconds = sum(run.speed.scale(*t) for t in scan["times"])
        return {"throughput_per_s": (scan["pairs"] / seconds, "1/s")}

    return in_process(run, seconds, trace, make_pass, run_job, extra)


# --------------------------------------------------------------- oracle

def oracle_argv(kind: str, job) -> list[str]:
    if kind == "comp":
        fam, n, a, b = job
        return ["oracle", "--type", fam, "--rank", str(n),
                f"--top-comp={csv(a)}", f"--bottom-comp={csv(b)}"]
    n, pi1, pi2 = job
    return ["oracle", "--type", "A", "--rank", str(n), f"--top={csv(pi1)}",
            f"--bottom={csv(pi2)}"]


def run_oracle(seaweeds, run: Run, seconds: float, trace: bool) -> dict:
    def check(kind, spec, argv, code, text):
        if code != 0:
            return f"exit {code}"
        data = json.loads(text)
        if data["index_matches_meander"] is not True:
            return "oracle index disagrees with the meander"
        if kind == "comp" and not (data["frobenius_combinatorial"]
                                   and data["index"] == 0
                                   and data["spectra_agree"] is True):
            return "winding-generated seaweed failed the oracle"
        if kind == "subset" and data["index"] != inputs.type_a_index(*spec):
            return f"index {data['index']} != meander formula"
        return run.digest(" ".join(argv), text)

    def run_job(job, k, tracer, profile):
        kind, spec = job
        argv = oracle_argv(kind, spec)
        start = clock()
        code, text = call_cli(seaweeds, argv)
        run.timed(start)
        run.job(" ".join(argv), check, kind, spec, argv, code, text)

    def extra():
        return {"throughput_per_s": (len(run.latencies)
                                     / sum(run.scaled()), "1/s")}

    jobs = inputs.oracle_jobs(run.seed)

    def make_pass(rng):
        order = list(jobs)
        rng.shuffle(order)
        return [(True, job) for job in order]

    return in_process(run, seconds, trace, make_pass, run_job, extra)


# ----------------------------------------------------------------- main

def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One client and no extra threads: the catalog scan would otherwise
    # take its thread count from the caller's environment.
    os.environ["SEAWEED_THREADS"] = "1"
    # One core for the benchmark and the CLI processes it starts, so that
    # the reference samples time the core the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seaweeds = load_package()
    setup_s = measure_setup() if not args.trace else None
    run = Run(args.seed)
    trace = bool(args.trace)
    if args.workload == "query":
        metrics = run_query(run, args.seconds, trace)
    elif args.workload == "catalog":
        metrics = run_catalog(seaweeds, run, args.seconds, trace)
    else:
        metrics = run_oracle(seaweeds, run, args.seconds, trace)

    if trace:
        metrics["host.reference_ms"] = (run.speed.reference_ms(), "ms")
    else:
        lat = sorted(run.scaled())
        metrics["setup_s"] = (setup_s, "s")
        metrics["latency_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
        metrics["latency_p90_ms"] = (
            statistics.quantiles(lat, n=10)[8] * 1e3, "ms")
    if run.profile is not None:
        run.profile.report(args.workload)
    for line in run.errors:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
