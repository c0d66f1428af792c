"""Outside-in benchmark of the velo command line.

One client in one thread calls velo.cli.main(argv) in-process, one job at a
time (a closed loop), with stdout captured and every output checked.  A run
repeats whole passes over its workload's deck until --seconds of wall time
have gone by and MIN_JOBS jobs have run, so every run does the same mix of jobs.

    python3 perfbench/run.py --workload nets2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 prints the end-to-end metrics.  --trace 1 runs one pass, then
pairs of the same pass untraced and with every public velo function wrapped
in a timing span, and prints the per-layer metrics.  `all` runs each workload in
a fresh process, untraced and traced, and prints one table.  The last line of
standard output is a JSON object; the exit code is 1 when an output is wrong.

Times are in reference seconds.  Benchmark hosts are often shared, and a
neighbour's load can slow pure-Python code by tens of percent for seconds at a
time.  So before every job the client times a fixed calibration kernel, and
each job's time is scaled by CAL_REF_S over the median kernel time around it.
On an idle host a reference second is a second.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)  # metric names and units
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

try:  # glibc: hand freed heap pages back to the OS
    malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):
    def malloc_trim(pad: int) -> int:
        return 0

SETUP_REPEATS = 9
MIN_JOBS = 100  # so that at least ten samples lie beyond p90
CAL_REF_S = 0.0009  # calibration kernel time on an idle 2-core x86-64 VM, Python 3.11
CAL_REACH_S = 0.25  # kernel samples this far around a job, or one job length if longer


def calibration_kernel() -> Fraction:
    """Fixed interpreter work like velo's own: Fraction arithmetic, dicts, tuples."""
    total, counts = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i % 13, i % 97 + 1)
        key = (i % 50, i % 7)
        counts[key] = counts.get(key, 0) + i
    return total


class Timer:
    """Raw (start, seconds) spans of timed work and of calibration kernels."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self.cal: list[tuple[float, float]] = []

    def kernel(self) -> None:
        start = time.perf_counter()
        calibration_kernel()
        self.cal.append((start, time.perf_counter() - start))

    def normalized(self) -> list[float]:
        """Each span scaled by CAL_REF_S over the median kernel time near it.  A
        kernel runs just before every span, so the window is never empty."""
        starts = [s for s, _ in self.cal]
        out = []
        for start, seconds in self.spans:
            reach = max(seconds, CAL_REACH_S)
            lo = bisect.bisect_left(starts, start - reach)
            hi = bisect.bisect_right(starts, start + seconds + reach)
            out.append(seconds * CAL_REF_S / statistics.median(d for _, d in self.cal[lo:hi]))
        return out


def import_velo():
    """Import velo from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "velo", "__init__.py")):
        raise SystemExit(f"error: no velo package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "velo" or n.startswith("velo.")]:
        del sys.modules[name]
    import velo.cli

    if not os.path.abspath(velo.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: velo was imported from {velo.cli.__file__}, not {SRC}")


def setup(workload: str, seed: int, workdir: str):
    """Import velo and write a seeded corpus, SETUP_REPEATS times; returns the
    first corpus's decks and the median set-up time.  Each repeat draws its own
    corpus from the seed, so the median also averages over the corpus draws
    (realize's rejection sampling takes a seed-dependent time), and starts
    from the same heap: only the first corpus is kept."""
    timer = Timer()
    decks = None
    for i in range(SETUP_REPEATS):
        target = os.path.join(workdir, f"corpus{i}")
        gc.collect()
        timer.kernel()
        start = time.perf_counter()
        import_velo()
        os.makedirs(target)
        corpus = workloads.WORKLOADS[workload](random.Random(seed * SETUP_REPEATS + i), target)
        timer.spans.append((start, time.perf_counter() - start))
        decks = decks or corpus
    timer.kernel()
    return decks, statistics.median(timer.normalized())


class Client:
    """Runs jobs through velo.cli.main and checks what they print."""

    def __init__(self, seen: dict[str, bytes] | None = None):
        self.timer = Timer()  # one span per job, one kernel before each job and after the last
        self.failed = 0
        self.passes = 0
        self.wrong: list[str] = []
        self.seen = {} if seen is None else seen  # job key -> digest of its checked output

    def run(self, job: workloads.Job) -> None:
        import velo.cli

        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # no job pays for an earlier job's garbage
        malloc_trim(0)  # and peak RSS is the largest job's, not an accident of job order
        self.timer.kernel()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = velo.cli.main(list(job.argv))
        except (Exception, SystemExit) as exc:  # a crash is a failed job, not a harness error
            code = f"{type(exc).__name__}: {exc}"
        self.timer.spans.append((start, time.perf_counter() - start))
        name = " ".join(job.argv)
        if code != 0:
            self.failed += 1
            self.wrong.append(f"{name}: exit {code} {err.getvalue().strip()[:200]}")
            return
        text = out.getvalue()
        digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
        if job.key in self.seen:
            if digest != self.seen[job.key]:
                self.wrong.append(f"{name}: output differs from an equivalent job's")
            return
        try:
            job.check(text)
        except workloads.CheckError as exc:
            self.wrong.append(f"{name}: {exc}")
            return
        except (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
            self.wrong.append(f"{name}: unreadable output ({exc!r})")
            return
        self.seen[job.key] = digest

    def run_passes(self, decks, seed: int, seconds: float = 0, passes: int | None = None,
                   min_jobs: int = 0) -> int:
        """Whole passes, alternating decks: `passes` of them, or else until `seconds`
        of wall time have gone by and `min_jobs` jobs have run.  The job order
        within a pass comes from the seed."""
        rng = random.Random(seed)
        start = time.perf_counter()
        done = 0
        while done < passes if passes is not None else (
                done == 0 or time.perf_counter() - start < seconds or self.jobs < min_jobs):
            deck = decks[done % len(decks)]
            for unit in rng.sample(deck, len(deck)):
                for job in unit:
                    self.run(job)
            done += 1
        self.timer.kernel()
        self.passes += done
        return done

    @property
    def jobs(self) -> int:
        return len(self.timer.spans)

    def jobs_per_s(self) -> float:
        lat = self.timer.normalized()
        return len(lat) / sum(lat)


def end_to_end(client: Client, setup_s: float) -> dict[str, float]:
    lat = client.timer.normalized()
    return {
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_p90_s": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced_pairs(decks, seed: int, seconds: float, seen=None) -> tuple[Client, Client, Tracer]:
    """Pairs of one untraced and one traced pass of the same jobs, until `seconds`
    have gone by; the order within a pair alternates, so drift in host speed
    falls on both sides alike."""
    plain, traced, tracer = Client(seen), Client(seen), Tracer()
    start = time.perf_counter()
    pairs = 0
    while pairs == 0 or time.perf_counter() - start < seconds:
        for side in ((plain, traced) if pairs % 2 == 0 else (traced, plain)):
            if side is traced:
                tracer.install()
            try:
                side.run_passes(decks, seed + pairs, passes=1)
            finally:
                tracer.remove()
        pairs += 1
    return plain, traced, tracer


def per_layer(plain: Client, traced: Client, tracer: Tracer) -> dict[str, float]:
    metrics = tracer.layer_metrics([m["name"] for m in SPEC["per_layer"]], traced.jobs)
    metrics["trace.overhead_frac"] = 1 - traced.jobs_per_s() / plain.jobs_per_s()
    return metrics


def run_workload(args) -> int:
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        decks, setup_s = setup(args.workload, args.seed, workdir)
        client = Client()
        if not args.trace:
            client.run_passes(decks, args.seed, seconds=args.seconds, min_jobs=MIN_JOBS)
            metrics = end_to_end(client, setup_s)
            clients = [client]
        else:
            # one pass first, so that neither side pays for first use of memory
            client.run_passes(decks, args.seed, passes=1)
            plain, traced, tracer = traced_pairs(decks, args.seed, args.seconds, client.seen)
            metrics = per_layer(plain, traced, tracer)
            tag = f"{args.workload}-seed{args.seed}"
            tracer.write(os.path.join(WORK, f"spans-{tag}.jsonl"),
                         os.path.join(WORK, f"layers-{tag}.json"), metrics)
            clients = [client, plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    jobs, failed = sum(c.jobs for c in clients), sum(c.failed for c in clients)
    passes = sum(c.passes for c in clients)
    wrong = [line for c in clients for line in c.wrong]
    for line in wrong[:20]:
        print("WRONG " + line)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {jobs} jobs in "
          f"{passes} passes of {sum(map(len, decks[0]))} jobs, {failed} failed, {len(wrong)} wrong")
    print(json.dumps({
        "correct": not wrong,
        "attempted": jobs,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if not wrong else 1


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced; prints one table."""
    rows: dict[str, dict] = {}
    ok = True
    for name in workloads.WORKLOADS:
        row = rows.setdefault(name, {"attempted": 0, "failed": 0})
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-2000:])
                ok = False
            if not lines:
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            row["attempted"] += result["attempted"]
            row["failed"] += result["failed"]
            row.update({k: v["value"] for k, v in result["metrics"].items()})
        row["fail_frac"] = row["failed"] / max(row["attempted"], 1)
    keys = sorted({k for row in rows.values() for k in row})
    print(f"{'metric':44}" + "".join(f"{n:>12}" for n in rows))
    for k in keys:
        print(f"{k:44}" + "".join(f"{rows[n].get(k, float('nan')):>12.5g}" for n in rows))
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "correct": ok, "workloads": rows}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
