"""minsos benchmark: run one workload, check every output, print metrics.

Run from the root of a minsos checkout:

    python3 perfbench/run.py --workload homotopy --seed 1 --seconds 30 --trace 0

The workload's instances are generated from --seed.  The run makes one
full pass over them and then keeps cycling through them until --seconds
have gone by.  Job and set-up times are reported at the reference host
speed (see hostspeed.py; the times as measured are in the detail line):
an instance's time is the median of its repeats, and wall_s sums them over
the instances.  Every output is checked by
perfbench/oracle.py outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 makes one untraced and
one traced pass and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it holds the
environment, instance seeds and per-job times and verdicts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# BLAS threads are capped at the core count; the jobs themselves are single-threaded
BLAS_THREADS = str(os.cpu_count() or 1)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up samples: this process plus fresh interpreters that import and
# generate, spread over the run between jobs; each is scaled to the
# reference host speed and the run reports their median
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120
END_TO_END_UNITS = {
    "wall_s": "s",
    "job_geomean_s": "s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("homotopy", "factor", "census"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def setup(workload, seed):
    """Import the package, finish its lazy set-up and generate the inputs.

    Returns the set-up time as measured and at the reference host speed.
    """
    start = time.perf_counter()
    from minsos import tracking

    from perfbench import workloads

    backend = tracking.warm_up()  # JIT compilation under numba
    instances = workloads.WORKLOADS[workload](seed)
    seconds = time.perf_counter() - start
    from perfbench.hostspeed import spot_rate

    return (seconds, seconds * spot_rate()), instances, backend


def probe_setup(args):
    """(measured, reference-speed) set-up time of a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


@dataclass
class Job:
    start: float
    end: float
    seconds: float  # end - start less the time the host speed sampler took
    error: str | None
    ref_s: float | None = None  # seconds at the reference host speed


def run_job(instance, tracer=None, speed=None):
    """Time one job, then check its output."""
    spent = speed.spent if speed is not None else 0.0
    start = time.perf_counter()
    try:
        if tracer is None:
            result = instance.run()
        else:
            result = tracer.call("job", instance.run)
    except Exception as exc:  # a job that raises counts as failed
        error = "%s: %s" % (type(exc).__name__, exc)
        result = None
    else:
        error = None
    end = time.perf_counter()
    seconds = end - start - ((speed.spent - spent) if speed is not None else 0.0)
    if error is None:
        try:
            instance.check(result)
        except Exception as exc:  # any check failure, expected or not, fails the job
            error = "%s: %s" % (type(exc).__name__, exc)
    return Job(start, end, seconds, error)


class Record:
    """Per-instance jobs of one run."""

    def __init__(self, instances):
        self.instances = instances
        self.jobs = [[] for _ in instances]

    def add(self, i, job):
        self.jobs[i].append(job)

    @property
    def attempted(self):
        return sum(len(jobs) for jobs in self.jobs)

    @property
    def failed(self):
        return sum(job.error is not None for jobs in self.jobs for job in jobs)

    def to_reference_speed(self, speed):
        for jobs in self.jobs:
            for job in jobs:
                job.ref_s = job.seconds * speed.rate(job.start, job.end)

    def instance_times(self, instance_time=lambda jobs: statistics.median(j.ref_s for j in jobs)):
        """One time per instance, by default the median of its repeats at the reference speed."""
        return [instance_time(jobs) for jobs in self.jobs]

    def to_json(self):
        return [
            {
                "instance": inst.label,
                "group": inst.group,
                "seeds": inst.seeds,
                "times_s": [job.seconds for job in jobs],
                "ref_times_s": [job.ref_s for job in jobs],
                "ok": [job.error is None for job in jobs],
                "errors": [job.error for job in jobs if job.error is not None],
            }
            for inst, jobs in zip(self.instances, self.jobs)
        ]


def one_pass(instances, record, tracer=None, speed=None):
    for i, inst in enumerate(instances):
        record.add(i, run_job(inst, tracer, speed))


def measure(instances, seconds, between, speed):
    """One full pass, then more jobs in order while the next one fits.

    The host speed is sampled throughout, except while between(elapsed),
    which runs after every job outside the job's timing.
    """
    record = Record(instances)
    start = time.perf_counter()

    def job(i):
        record.add(i, run_job(instances[i], speed=speed))
        speed.stop()
        between(time.perf_counter() - start)
        speed.start()

    speed.start()
    try:
        for i in range(len(instances)):
            job(i)
        i = 0
        while time.perf_counter() - start + record.jobs[i][-1].seconds <= seconds:
            job(i)
            i = (i + 1) % len(instances)
    finally:
        speed.stop()
    record.to_reference_speed(speed)
    return record


def traced_run(workload, seed, instances):
    """An untraced pass, then traced generation and a traced pass.

    trace_overhead_ratio compares the two passes at the reference host
    speed; the per-layer times are as measured.
    """
    from perfbench import workloads
    from perfbench.hostspeed import HostSpeed
    from perfbench.spans import Patcher, Tracer

    record = Record(instances)
    speed = HostSpeed()
    tracer = Tracer()
    patcher = Patcher()
    speed.start()
    try:
        one_pass(instances, record, speed=speed)
        workloads.instrument(tracer, patcher)
        workloads.WORKLOADS[workload](seed)
        one_pass(instances, record, tracer, speed)
    finally:
        patcher.restore()
        speed.stop()
    record.to_reference_speed(speed)
    untraced, traced = (sum(jobs[k].ref_s for jobs in record.jobs) for k in (0, 1))
    values = workloads.layer_metrics(tracer)
    values["trace_overhead_ratio"] = traced / untraced - 1.0
    units = dict(workloads.PER_LAYER_UNITS, trace_overhead_ratio="ratio")
    return record, {name: {"value": values[name], "unit": units[name]} for name in units}


def git_commit(root):
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "minsos" / "__init__.py").is_file():
        print("perfbench: no minsos package under %s; run from a minsos checkout" % SRC,
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(ROOT)]

    setup_s, instances, backend = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy

    from perfbench.hostspeed import REF_S, HostSpeed

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(ROOT),
    }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    if args.trace:
        record, metrics = traced_run(args.workload, args.seed, instances)
    else:
        setup_samples = [setup_s]

        def probe_due(elapsed):
            while len(setup_samples) - 1 < SETUP_PROBES * min(1.0, elapsed / args.seconds):
                setup_samples.append(probe_setup(args))

        speed = HostSpeed()
        record = measure(instances, args.seconds, probe_due, speed)
        probe_due(args.seconds)
        times = record.instance_times()
        values = {
            "wall_s": sum(times),
            "job_geomean_s": math.exp(statistics.fmean(math.log(t) for t in times)),
            "ok_ratio": (record.attempted - record.failed) / record.attempted,
            "setup_s": statistics.median(ref for _measured, ref in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        detail["setup_samples_s"] = {
            "measured": [measured for measured, _ref in setup_samples],
            "reference_speed": [ref for _measured, ref in setup_samples],
        }
        # as measured: each instance's fastest repeat, not scaled to the reference speed
        detail["measured_wall_s"] = sum(
            record.instance_times(lambda jobs: min(j.seconds for j in jobs)))
        detail["host_speed"] = {
            "samples": len(speed.kernel_s),
            "kernel_median_s": statistics.median(speed.kernel_s),
            "ref_s": REF_S,
        }
    detail["jobs"] = record.to_json()
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
