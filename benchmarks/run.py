"""csilab benchmark: per-command time and memory of the ``csilab`` CLI.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one csilab command on generated inputs.  A server
process (``child.py``) imports csilab once and forks a fresh process for
every command, because ``ru_maxrss`` is a per-process high-water mark.
Interpreter start, ``import csilab`` and the scenario build are set-up,
not command time, and forking keeps them out of the timed loop, so a
run times more commands than spawning an interpreter for each would.  ``CSILAB_THREADS`` is removed from the server's environment,
so every command runs the single-threaded default.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the provenance record
of the result.

Workloads (``--seed``, modulo 2**64, is passed on as ``csilab --seed``;
the program sees only the traces it generates):

* ``simulate-g10``: ``csilab simulate --config G10``, 500 sets.  synth,
  theory and tracefile do all the work; estimators and dsp none, so an
  analysis change is predicted to leave it unchanged.  It stages 160 MB
  of float64, which does not fit the 105 MiB L3 of the 2-core Xeon the
  benchmark was defined on.
* ``report-g10-s100``: ``csilab report --config G10 --sets 100`` runs
  simulate, analyze and the 15-cutoff sweep in one process, so every
  layer does work.  Its 32 MB float64 working set fits that L3, and fixed
  per-command costs (CSV writes, full-scale derivation, filter grids)
  weigh more than in the 500-set command.

The provenance record gives the L3 size of the machine that ran a
result.  ``analyze`` and ``sweep`` on a 500-set G2 container are not
workloads of their own: on a shared 2-core host their 3.5 s and 14 s
commands spread by more than a quarter between runs of the same code,
and two workloads let each run last longer.

End-to-end metrics (tracing off), the same names on every workload:
``command_s`` (median wall time of the workload's command), ``command_rss_mb``
(median peak RSS of its process), ``setup_s`` (median time from spawning a
server to its being ready; a new server replaces the old one once it has
served for eight seconds, so a run starts several) and
``ok_frac`` (commands that exited 0 and passed their output check over
commands attempted).

With ``--trace 1`` the workload runs as pairs of an untraced and a traced
command (``tracer.py``); the per-layer metrics are medians over the
traced commands.  Exact counts (``*.calls``, ``fft.*.points``,
``tracefile.bytes``, ``dsp.nopeak_fallbacks``) must repeat across pairs
or the run counts a failure.  Two layers are left unmeasured on purpose:
``fock`` (17 ms for the 25-point oracle grid) is on no user path except
``csilab theory --oracle``, and ``scenarios`` takes microseconds.

Only the benchmark's own processes are measured; no system-wide
profiler is used.
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata

from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_work")

SERVER_LIFE_S = 8.0  # a new server, and a set-up sample, once this has passed
DEADLINE_S = 170.0
REPORT_CUTOFFS = 15  # csilab report sweeps 1..15 MHz by default
NOTE = ("only the benchmark's own processes were measured; "
        "no system-wide profiler was used")


@dataclass(frozen=True)
class Workload:
    preset: str
    sets: int
    command: str  # simulate or report


WORKLOADS = {
    "simulate-g10": Workload("G10", 500, "simulate"),
    "report-g10-s100": Workload("G10", 100, "report"),
}

DSP_FUNCTIONS = ("estimate_delay", "butterworth_bandpass", "compensate_delay", "psd_estimate")
ESTIMATORS = ("filtered_violation", "normalized_spectra", "csi_frequency_test",
              "g2_curves", "cutoff_sweep")


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    """One command: its time, peak RSS and output check."""

    command_s: float
    rss_mb: float
    ok: bool
    obs: dict
    spans: str | None


class Server:
    """A ``child.py`` process that has imported csilab and forks per command."""

    def __init__(self, preset: str, env: dict, log_path: str, timeout: float):
        t0 = _clock()
        self.log_path = log_path
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, CHILD, SRC, "--config", preset], cwd=ROOT, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                start_new_session=True)
        self.buffer = b""
        line = self._readline(timeout)
        if line is None or not line.startswith("ready "):
            self.close()
            raise RuntimeError(f"csilab server did not start: {self.log_tail()}")
        self.setup_s = float(line.split()[1]) - t0

    def _readline(self, timeout: float):
        """One line of the server's output, or None at timeout or exit."""
        deadline = _clock() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            left = deadline - _clock()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 65536)
            if not chunk:
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def request(self, argv, spans, timeout: float):
        """(result, None) for a command that ran, (None, reason) otherwise."""
        try:
            self.proc.stdin.write((json.dumps({"argv": argv, "spans": spans}) + "\n").encode())
            self.proc.stdin.flush()
        except (OSError, ValueError) as exc:
            return None, f"server gone ({exc}): {self.log_tail()}"
        line = self._readline(timeout)
        if line is None:
            self.close()
            return None, f"no answer within {timeout:.0f} s: {self.log_tail()}"
        return json.loads(line), None

    def log_tail(self) -> str:
        with open(self.log_path, errors="replace") as fh:
            return fh.read()[-2000:]

    def close(self) -> None:
        """End the server and every fork it started, and wait for them."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # a fork left behind
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, wl: Workload, seed: int, sets: int, work: str, trace_dir: str):
        self.wl, self.seed, self.sets = wl, seed, sets
        self.work, self.trace_dir = work, trace_dir
        self.env = {k: v for k, v in os.environ.items() if k != "CSILAB_THREADS"}
        self.start = _clock()
        self.outcomes: list[Outcome] = []
        self.serial = 0
        self.count_mismatch = False
        self.server = None
        self.server_started = 0.0
        self.setup_times = []

    def start_server(self) -> None:
        """Replace the server with a fresh one and record its set-up time."""
        self.close()
        self.server = Server(self.wl.preset, self.env,
                             os.path.join(self.work, "server.log"), self.remaining())
        self.server_started = _clock()
        self.setup_times.append(self.server.setup_s)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    @property
    def out(self) -> str:
        return os.path.join(self.work, "out")

    def command_argv(self) -> list:
        cmd = self.wl.command
        out = os.path.join(self.out, "traces.cstf") if cmd == "simulate" else self.out
        return [cmd, "--config", self.wl.preset, "--seed", str(self.seed),
                "--sets", str(self.sets), "--out", out]

    def check(self):
        from checks import check_analysis, check_container, check_sweep

        ok, msg, obs = check_container(os.path.join(self.out, "traces.cstf"), self.sets)
        if ok and self.wl.command == "report":
            ok, msg, more = check_analysis(self.out)
            obs.update(more)
            if ok:
                ok, msg = check_sweep(self.out, REPORT_CUTOFFS)
        return ok, msg, obs

    def run(self, traced: bool) -> Outcome:
        """Run the workload's command in a fresh fork of the server and check it."""
        argv = self.command_argv()
        self.serial += 1
        spans = os.path.join(self.trace_dir, f"spans-{self.serial}.json") if traced else None
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        t0 = _clock()
        res, why = self.server.request(argv, spans, self.remaining())
        if res is not None and res.get("rc") == 0:
            ok, msg, obs = self.check()
            command = res["t_end"] - res["t_start"]
        else:
            res = res or {}
            ok, msg, obs = False, f"{why or 'exit ' + str(res.get('rc'))}: {res.get('error') or ''}", {}
            command = _clock() - t0
        if not ok:
            print(f"FAILED csilab {' '.join(argv)}: {msg.strip()}", file=sys.stderr)
        outcome = Outcome(command, res.get("maxrss_kib", 0) * 1024 / 1e6, ok, obs, spans)
        self.outcomes.append(outcome)
        return outcome

    def remaining(self) -> float:
        return max(1.0, DEADLINE_S - (_clock() - self.start))

    def repeat(self, seconds: float, step) -> list:
        """Call step() until the next call is predicted to end past seconds.

        At least one call is made; none starts past the run's deadline or
        after a command has failed.
        """
        results, t_loop = [], _clock()
        while True:
            t0 = _clock()
            results.append(step())
            now = _clock()
            last = now - t0
            if (now - t_loop + last > seconds or now - self.start + last > DEADLINE_S
                    or not self.outcomes[-1].ok):
                return results


def end_to_end(bench: Bench, seconds: float) -> dict:
    # set-up is sampled all through the run, not only at its start, so
    # that its median sees the same host as the commands' median
    def step():
        if _clock() - bench.server_started > SERVER_LIFE_S:
            bench.start_server()
        return bench.run(False)

    bench.start_server()
    runs = bench.repeat(seconds, step)
    attempted = len(bench.outcomes)
    failed = sum(not o.ok for o in bench.outcomes)
    return {
        "command_s": (statistics.median(r.command_s for r in runs), "s"),
        "command_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
        "setup_s": (statistics.median(bench.setup_times), "s"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }


def _layer_values(outcomes, overhead: float) -> dict:
    """Per-layer metrics of one traced pass from its span files."""
    dumps = []
    for o in outcomes:
        if o.ok:  # a failed child may have left no span file
            with open(o.spans) as fh:
                dumps.append(json.load(fh))
    names, layers = layer_metrics([d["spans"] for d in dumps])
    counters = {}
    for dump in dumps:
        for key, val in dump["counters"].items():
            counters[key] = counters.get(key, 0) + val

    def get(name, field):
        return names.get(name, {}).get(field, 0)

    clip = [o.obs["clip_frac"] for o in outcomes if "clip_frac" in o.obs]
    sets = sum(o.obs.get("sets", 0) for o in outcomes)
    degenerate = sum(o.obs.get("degenerate", 0) for o in outcomes)
    cutoffs = counters.get("estimators.cutoff_sweep.cutoffs", 0)
    m = {
        "synth.synthesize_s": (get("synth.synthesize", "s"), "s"),
        "synth.synthesize.alloc_peak_mb": (get("synth.synthesize", "alloc_peak") / 1e6, "MB"),
        "synth.clip_frac": (max(clip, default=0.0), "fraction"),
        "synth.TraceSet.ac.calls": (get("synth.TraceSet.ac", "calls"), "count"),
        "theory.self_s": (layers.get("theory", 0.0), "s"),
        "tracefile.write_s": (get("tracefile.write_tracefile", "s"), "s"),
        "tracefile.bytes": (counters.get("tracefile.bytes", 0), "bytes"),
    }
    for fn in DSP_FUNCTIONS:
        m[f"dsp.{fn}.calls"] = (get(f"dsp.{fn}", "calls"), "count")
        m[f"dsp.{fn}_s"] = (get(f"dsp.{fn}", "s"), "s")
        m[f"dsp.{fn}.self_s"] = (get(f"dsp.{fn}", "self_s"), "s")
    m["dsp.nopeak_fallbacks"] = (
        names.get("dsp.estimate_delay", {}).get("errors", {}).get("NoPeak", 0), "count")
    for kind in ("rfft", "irfft"):
        for what in ("calls", "points"):
            key = f"fft.{kind}.{what}"
            m[key] = (counters.get(key, 0), "count")
    for fn in ESTIMATORS:
        m[f"estimators.{fn}_s"] = (get(f"estimators.{fn}", "s"), "s")
    m["estimators.cutoff_sweep.per_cutoff_s"] = (
        get("estimators.cutoff_sweep", "s") / cutoffs if cutoffs else 0.0, "s")
    m["estimators.self_s"] = (layers.get("estimators", 0.0), "s")
    m["estimators.alloc_peak_mb"] = (max(
        (rec["alloc_peak"] for name, rec in names.items() if name.startswith("estimators.")),
        default=0) / 1e6, "MB")
    # 1 when no analysis ran: no set was reported degenerate
    m["estimators.valid_set_frac"] = (1.0 - degenerate / sets if sets else 1.0, "fraction")
    m["cli.self_s"] = (layers.get("cli", 0.0), "s")
    m["trace.overhead_frac"] = (overhead, "fraction")
    return m


EXACT_SUFFIXES = (".calls", ".points", "tracefile.bytes", "dsp.nopeak_fallbacks")


def per_layer(bench: Bench, seconds: float) -> dict:
    bench.start_server()

    def pair():
        plain = bench.run(False)
        traced = bench.run(True)
        overhead = (traced.command_s - plain.command_s) / plain.command_s
        return _layer_values([traced], overhead)

    passes = bench.repeat(seconds, pair)
    for key, (value, _) in passes[0].items():
        if key.endswith(EXACT_SUFFIXES) and any(p[key][0] != value for p in passes):
            print(f"FAILED exact count {key} differs between traced runs: "
                  f"{[p[key][0] for p in passes]}", file=sys.stderr)
            bench.count_mismatch = True
    return {key: (value if key.endswith(EXACT_SUFFIXES)
                  else statistics.median(p[key][0] for p in passes), unit)
            for key, (value, unit) in passes[0].items()}


def _l3_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, index, "size")) as fh:
                text = fh.read().strip()
            units = {"K": 1024, "M": 1024 ** 2}
            return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
    except OSError:
        pass
    return None


def provenance(args, bench: Bench) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    samples = next((o.obs["samples"] for o in bench.outcomes if "samples" in o.obs), None)
    values = 4 * bench.sets * samples if samples else None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sets": bench.sets, "git_sha": sha,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "working_set_mb": {"float64": values * 8 / 1e6, "int16": values * 2 / 1e6}
        if values else None,
        "csilab_threads": "unset", "commands": len(bench.outcomes), "note": NOTE,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--sets", type=int, help="override the set count (self-test only)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "csilab", "__init__.py")):
        print(f"no csilab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    wl = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    trace_dir = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}")
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    bench = None
    try:
        bench = Bench(wl, args.seed % 2 ** 64, args.sets or wl.sets, work, trace_dir)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(bench, args.seconds)
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not o.ok for o in bench.outcomes)
    print("provenance " + json.dumps(provenance(args, bench)))
    print(json.dumps({
        "correct": failed == 0 and not bench.count_mismatch,
        "attempted": len(bench.outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
