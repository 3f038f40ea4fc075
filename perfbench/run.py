"""Run one workload of the hofa benchmark and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  One process, one client, closed
loop: the next operation starts when the previous one has returned.  The
timed phase runs whole passes over the workload's operation list as long as
the next pass, taking as long as the last one, ends within ``--seconds`` (at
least two passes).  Every output is checked exactly outside the timed region
(first occurrence in full, repeats by equality with the checked text).

On a shared host the speed of the whole machine drifts by 20-40% within
minutes, so every time metric is given at one reference speed.  A fixed
reference probe that does not touch ``hofa`` runs after every operation (and
after each set-up), repeated for a fifth of the time just measured; that
time is scaled by ``PROBE_NOMINAL_S`` over the probe's mean time there.  The
unscaled figures are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs passes
untraced for a third of ``--seconds``, then as many passes traced, and
prints per-layer metrics per operation plus ``trace.overhead_frac``; spans
are written to ``.perfbench_out/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The workloads are defined in ``workloads.py``, the tracer in
``layertrace.py``.
"""
from __future__ import annotations

import os
import time

_T_START = time.perf_counter()

# one BLAS / OpenMP thread, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # set-up runs per measurement (this process plus fresh ones); the median is reported
SETUP_CHILD_TIMEOUT_S = 120
MIN_PASSES = 2  # so every operation has at least two samples
PROBE_SHARE = 0.2  # probe time after each operation, as a share of its latency
# The probe's time at the reference speed (a 2-vCPU Xeon VM at its usual
# speed); time metrics are scaled to it.
PROBE_NOMINAL_S = 0.015
_PROBE_MATRIX = np.arange(4096, dtype=np.int64).reshape(64, 64) % 7
_PROBE_VECTOR = np.arange(1 << 18, dtype=np.int64)
_PROBE_BUFFER = np.zeros_like(_PROBE_VECTOR)  # in place, so the probe adds little to peak_rss_mb
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("pipeline", "norms-p2-phase", "norms-ring", "algebra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help="print this process's set-up time and exit")
    return ap.parse_args(argv)


def import_program():
    """Import hofa from src/ of this checkout; exit 2 when it is not there."""
    if not (SRC / "hofa" / "__init__.py").is_file():
        print(f"error: no hofa package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hofa

    if Path(hofa.__file__).resolve().parent != (SRC / "hofa").resolve():
        print(f"error: hofa imported from {hofa.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "process_threads": _process_threads(),
    }


def cpu_steal_s() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs (0 if unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _process_threads():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def child_setup_times(args) -> list:
    """Set-up times of fresh processes building the same workload: (at reference speed, unscaled)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S, cwd=ROOT)
        if res.returncode != 0:
            raise RuntimeError(f"set-up child failed: {res.stderr.strip()}")
        out = json.loads(res.stdout.strip().splitlines()[-1])
        times.append((out["setup_s"], out["unscaled_s"]))
    return times


def probe_time(budget: float) -> float:
    """Mean time of one probe, run repeatedly for ``budget`` seconds (at least once)."""
    spent, count = 0.0, 0
    while count == 0 or spent < budget:
        t0 = time.perf_counter()
        probe()
        spent += time.perf_counter() - t0
        count += 1
    return spent / count


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """A time measured while the probe took ``probe_s``, as if it took ``PROBE_NOMINAL_S``."""
    return seconds * PROBE_NOMINAL_S / probe_s


def probe() -> int:
    """Fixed reference work, timed after every operation to gauge the host's speed.

    Interpreted integer arithmetic with dict stores, small int64 matrix
    products mod 7, and elementwise passes over 2 MB int64 arrays: the
    program's mix of interpreter, small-array and memory-bound numpy work,
    without calling it.
    """
    s = 0
    table = {}
    for i in range(30000):
        s = (s * 31 + i) % 1000003
        table[i & 255] = s
    m = _PROBE_MATRIX
    for _ in range(30):
        m = (m @ _PROBE_MATRIX) % 7
    v = _PROBE_BUFFER
    for _ in range(12):
        np.multiply(_PROBE_VECTOR, 5, out=v)
        np.add(v, 3, out=v)
        np.bitwise_and(v, 1023, out=v)
    return s + int(m[0, 0]) + int(v[-1])


class Runner:
    """Runs passes over a workload and checks every output."""

    def __init__(self, wl):
        self.wl = wl
        self.first = [None] * len(wl.ops)  # checked canonical text per op, None before its first run
        self.first_outputs = [None] * len(wl.ops)
        self.failures: list = []
        self.attempted = 0

    def run_pass(self, latencies: list, probes: list, tracer=None) -> list:
        """One pass over the op list; returns this pass's canonical texts.

        Appends each operation's latency to ``latencies`` and the mean probe
        time right after it to ``probes``.
        """
        texts = []
        for i, op in enumerate(self.wl.ops):
            if tracer is not None:
                tracer.op_id = self.attempted
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a failing op is counted and the run goes on
                out, error = None, exc
            latencies.append(time.perf_counter() - t0)
            probes.append(probe_time(PROBE_SHARE * latencies[-1]))
            if error is None:
                texts.append(self._check(i, op, out))
            else:
                trace = "".join(traceback.format_exception(error))
                self.failures.append(f"op {i} ({op.kind}) raised:\n{trace}")
                texts.append(None)
        return texts

    def _check(self, i, op, out):
        try:
            text = op.canon(out)
            if self.first[i] is None:
                reason = op.check(out)
                if reason is None:
                    self.first[i] = text
                    self.first_outputs[i] = out
            else:
                reason = None if text == self.first[i] else "output differs from the checked first output"
        except Exception:
            reason = f"check raised:\n{traceback.format_exc()}"
            text = None
        if reason is not None:
            self.failures.append(f"op {i} ({op.kind}): {reason}")
            return None
        return text

    def run(self, seconds: float, min_passes: int, tracer=None):
        """Run at least ``min_passes`` whole passes, and more while the next
        one, taking as long as the last, would end within ``seconds``.

        Returns all latencies, their probe times, the first pass's texts and
        the pass count.
        """
        lat: list = []
        probes: list = []
        texts = None
        passes = 0
        t0 = last = time.perf_counter()
        while passes < min_passes or 2 * time.perf_counter() - last - t0 <= seconds:
            last = time.perf_counter()
            t = self.run_pass(lat, probes, tracer)
            texts = texts if texts is not None else t
            passes += 1
        return lat, probes, texts, passes


def mean_pass(ops, lat):
    """One pass with each operation at its mean latency over the run.

    ``lat`` holds the latencies of whole passes in order; an operation that
    appears more than once in a pass pools all of its samples.
    """
    samples = {}
    for op, t in zip(itertools.cycle(ops), lat):
        samples.setdefault(id(op), []).append(t)
    return [statistics.fmean(samples[id(op)]) for op in ops]


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    wl = workloads.build(args.workload, args.seed, args.tiny)
    setup_raw = time.perf_counter() - _T_START
    setup_here = (at_reference_speed(setup_raw, probe_time(PROBE_SHARE * setup_raw)), setup_raw)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_here[0], "unscaled_s": setup_here[1]}))
        return 0

    record = machine_record()
    print(f"machine: {json.dumps(record)}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"ops_per_pass={len(wl.ops)} closed loop, 1 client")
    problems = [f"oracle: {r}" for r in wl.oracle()]
    runner = Runner(wl)

    if args.trace == 0:
        setups = [setup_here] + child_setup_times(args)
        steal0 = cpu_steal_s()
        lat, probes, texts, passes = runner.run(args.seconds, MIN_PASSES)
        steal = cpu_steal_s() - steal0
        verified = runner.attempted - len(runner.failures)
        ref = [at_reference_speed(t, pb) for t, pb in zip(lat, probes)]
        means, raw_means = mean_pass(wl.ops, ref), mean_pass(wl.ops, lat)
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "ops_per_s": (verified / sum(ref), "1/s"),
            "op_gmean_s": (statistics.geometric_mean(means), "s"),
            "op_tail_s": (max(means), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"setup runs (s, at reference speed): {[round(s, 4) for s, _ in setups]}, "
              f"unscaled: {[round(s, 4) for _, s in setups]}")
        print(f"passes: {passes}  ops: {len(lat)}  op time: {sum(lat):.3f} s  cpu steal meanwhile: {steal:.2f} s")
        print(f"probe: mean {statistics.fmean(probes):.5f} s, reference {PROBE_NOMINAL_S} s")
        print(f"unscaled: {verified / sum(lat):.4g} ops/s, op_gmean {statistics.geometric_mean(raw_means):.4f} s, "
              f"op_tail {max(raw_means):.4f} s")
        kinds = [op.kind for op in wl.ops] * passes
        for kind in dict.fromkeys(kinds):
            own = [t for k, t in zip(kinds, lat) if k == kind]
            print(f"kind {kind}: {len(own)} ops, mean {statistics.fmean(own):.4f} s, min {min(own):.4f} s (unscaled)")
    else:
        from layertrace import LayerTracer

        # untraced passes first, for the overhead baseline and the digest to compare
        lat0, probes0, texts, passes = runner.run(args.seconds / 3, 1)
        tracer = LayerTracer()
        tracer.install()
        try:
            lat, probes, traced_texts, _ = runner.run(0, passes, tracer)
        finally:
            tracer.uninstall()
        print(f"traced: {len(lat)} ops, {len(tracer.spans)} spans, {tracer.wrapped_count} wrapped callables")
        print(f"traced digest: {workloads.digest(t or '' for t in traced_texts)}")
        if traced_texts != texts:
            problems.append("traced outputs differ from untraced outputs")
        metrics = tracer.metrics(len(lat))
        traced_s = sum(map(at_reference_speed, lat, probes))
        untraced_s = sum(map(at_reference_speed, lat0, probes0))
        metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
        shares = tracer.self_shares()
        print("self-time shares: " + ", ".join(f"{layer} {100 * share:.1f}%" for layer, share in shares.items()))
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")

    if all(o is not None for o in runner.first_outputs):
        problems += [f"control: {r}" for r in wl.control(runner.first_outputs)]
    print(f"digest: {workloads.digest(t or '' for t in texts)}")
    failed = len(runner.failures)
    print(f"failed_frac: {failed / runner.attempted:.6g} ({failed} of {runner.attempted})")
    for msg in runner.failures[:5] + problems:
        print(f"FAIL {msg}")
    correct = failed == 0 and not problems
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
