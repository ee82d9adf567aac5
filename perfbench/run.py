"""Benchmark of `kcbs-qkd simulate`, end to end and layer by layer.

    python3 perfbench/run.py --workload pm_fixed_1e6 --seed 1 --seconds 30 --trace 0

One caller drives ``kcbs_qkd.cli.main(["simulate", ...])`` in this process
in a closed loop: the next session starts only after the previous report has
been written and checked.  A run lasts about ``--seconds`` of wall time and
stops at a whole unit of work (one session, or one cycle of the sweep mix),
so a faster program runs more sessions rather than a shorter run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each session
twice, untraced and then with the package's public functions wrapped by
timers from outside, and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

# numpy imports numpy.random lazily; importing it here keeps a probe that fires
# during a session from re-entering that import
from numpy.random import Generator, Philox

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
REPORT = WORK / "report.json"
CSV = WORK / "rounds.csv"

SESSION_SEED_STRIDE = 10**7  # session n of a run with --seed s has seed s * stride + n
CHECK_ROUNDS = 20_000  # cap on rounds of the determinism and memory passes
SETUP_SPAWNS = 4  # before and again after the timed loop, ~30 s apart
REPLAY_ROUNDS = 20_000
REPLAY_BLOCK = 250
PROBE_PERIOD_S = 0.02  # how often the host's speed is sampled during timed work
PROBE_MARGIN_S = 0.25  # samples this close to a session also describe its speed
CAL_REF_S = 60e-6  # the calibration kernel's time in this host's fast phase
RESENDS = ("collapsed", "eigenstate")
SWEEP_EVES = (
    [("absent", None)]
    + [(f"fixed:{k}", r) for k in range(5) for r in RESENDS]
    + [("random", r) for r in RESENDS]
)
SWEEP_MIX = [(mode, eve, r) for mode in ("prepare", "entangled") for eve, r in SWEEP_EVES]
SWEEP_ROUNDS = [500 + 180 * k for k in range(len(SWEEP_MIX))]  # 500 .. 5000

END_TO_END_UNITS = {
    "rounds_per_s": "1/s",
    "session_ms_p50": "ms",
    "setup_s": "s",
    "peak_bytes_per_round": "B",
}
PER_LAYER_UNITS = {
    "qutrit.stream_us_per_round": "us",
    "qutrit.draws_per_round": "count",
    "protocol.session_us_per_round": "us",
    "protocol.kernel_self_us_per_round": "us",
    "protocol.attempts_per_round": "count",
    "protocol.transcript_bytes_per_round": "B",
    "protocol.key_stats_us_per_round": "us",
    "protocol.security_us_per_round": "us",
    "adversary.estimate_pe_us_per_round": "us",
    "protocol.csv_us_per_round": "us",
    "protocol.csv_bytes_per_round": "B",
    "adversary.oracle_ms": "ms",
    "graphs.monogamy_ms": "ms",
    "kcbs.basis_ms": "ms",
    "cli.build_report_self_ms": "ms",
    "cli.report_json_ms": "ms",
    "cli.uncovered_pct": "%",
    "trace.slowdown_ratio": "ratio",
}

# (module attribute patched, span name): the public calls `simulate` makes
TRACED_CALLS = (
    ("cli", "standard_basis", "kcbs.standard_basis"),
    ("cli", "run_session", "protocol.run_session"),
    ("cli", "key_stats", "protocol.key_stats"),
    ("cli", "estimate_security", "protocol.estimate_security"),
    ("protocol", "estimate_pe", "adversary.estimate_pe"),
    ("cli", "build_report", "cli.build_report"),
    ("cli", "verify_monogamy_decomposition", "graphs.verify_monogamy_decomposition"),
    ("cli", "attack_expectation", "adversary.attack_expectation"),
    ("cli", "report_json", "cli.report_json"),
    ("cli", "write_transcript_csv", "protocol.write_transcript_csv"),
)

SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import kcbs_qkd.cli
from kcbs_qkd.adversary import EveStrategy
from kcbs_qkd.kcbs import standard_basis
from kcbs_qkd.protocol import ProtocolConfig, run_round
spec = json.loads(sys.argv[2])
cfg = ProtocolConfig(spec["mode"], standard_basis(), spec["rounds"],
                     spec["sacrifice_fraction"], EveStrategy(**spec["eve"]), spec["seed"])
run_round(cfg, 0)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def session(mode: str, rounds: int, seed: int, eve: str, resend: str | None,
            sacrifice: float, transcript: bool) -> dict:
    """A session's ``simulate`` arguments and the spec its report is checked against."""
    argv = ["simulate", "--mode", mode, "--rounds", str(rounds), "--seed", str(seed),
            "--eve", eve, "--sacrifice", str(sacrifice), "--out", str(REPORT)]
    if resend is not None:
        argv += ["--resend", resend]
    if transcript:
        argv += ["--transcript", str(CSV)]
    kind, _, setting = eve.partition(":")
    spec = {
        "mode": "prepare_measure" if mode == "prepare" else "entangled",
        "rounds": rounds,
        "seed": seed,
        "sacrifice_fraction": sacrifice,
        "eve": {"kind": kind, "setting": int(setting) if setting else None,
                "resend": resend or "collapsed"},
    }
    return {"argv": argv, "spec": spec, "csv": transcript}


def capped(s: dict, rounds: int) -> dict:
    """The same session with at most ``rounds`` rounds."""
    rounds = min(rounds, s["spec"]["rounds"])
    argv = list(s["argv"])
    argv[argv.index("--rounds") + 1] = str(rounds)
    return {"argv": argv, "spec": dict(s["spec"], rounds=rounds), "csv": s["csv"]}


def pm_fixed_units(seed: int):
    for n in itertools.count():
        yield [session("prepare", 10**6, seed * SESSION_SEED_STRIDE + n, "fixed:1",
                       "collapsed", 0.1, False)]


def ent_random_units(seed: int):
    for n in itertools.count():
        yield [session("entangled", 200_000, seed * SESSION_SEED_STRIDE + n, "random",
                       "eigenstate", 0.1, True)]


def sweep_units(seed: int):
    n = 0
    for cycle in itertools.count():
        rounds = list(SWEEP_ROUNDS)
        random.Random(seed * SESSION_SEED_STRIDE + cycle).shuffle(rounds)
        unit = []
        for (mode, eve, resend), r in zip(SWEEP_MIX, rounds):
            unit.append(session(mode, r, seed * SESSION_SEED_STRIDE + n, eve, resend,
                                0.5, False))
            n += 1
        yield unit


def sweep_memory_session(first: dict) -> dict:
    """The heaviest session of the mix at its largest size."""
    return session("entangled", max(SWEEP_ROUNDS), first["spec"]["seed"], "random",
                   "eigenstate", 0.5, False)


WORKLOADS = {
    "pm_fixed_1e6": (pm_fixed_units, lambda first: capped(first, CHECK_ROUNDS)),
    "ent_random_csv": (ent_random_units, lambda first: capped(first, CHECK_ROUNDS)),
    "sweep_short": (sweep_units, sweep_memory_session),
}


def calibration_kernel() -> None:
    """Fixed work independent of kcbs_qkd: a bytecode loop and two Philox seedings."""
    x = 0
    for i in range(400):
        x += i * i
    for i in range(2):
        Generator(Philox(key=[i, x])).random()


class SpeedProbe:
    """The host's speed over time, sampled on the benchmark's own thread.

    Every PROBE_PERIOD_S a SIGALRM handler times ``calibration_kernel``.  The
    shared host runs this guest's CPUs at varying speed for seconds at a time;
    ``adjusted`` rescales a wall-clock interval to the speed at which the kernel
    takes CAL_REF_S, and leaves out the time the probe itself took.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)
        if self.active:  # one-shot timer, re-armed here, so samples never nest
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self.active = True
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def adjusted(self, start: float, end: float) -> float:
        """Seconds that [start, end] would have lasted at the reference speed."""
        lo, hi = (bisect.bisect_left(self.starts, t) for t in (start, end))
        busy = sum(self.seconds[lo:hi])
        near = self.seconds[bisect.bisect_left(self.starts, start - PROBE_MARGIN_S):
                            bisect.bisect_right(self.starts, end + PROBE_MARGIN_S)]
        speed = statistics.fmean(CAL_REF_S / d for d in near) if near else 1.0
        return (end - start - busy) * speed


class Tracer:
    """Spans around the package's public calls, timed from outside the program.

    Each call records (inclusive seconds, self seconds, rounds of the session
    it belongs to); self time excludes the spans nested inside the call.
    """

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.calls: dict[str, list[tuple[float, float, int]]] = {}
        self.stack: list[float] = []
        self.rounds = 0
        self.transcript = None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                nested = self.stack.pop()
                if self.stack:
                    self.stack[-1] += elapsed
                self.calls.setdefault(name, []).append((elapsed, elapsed - nested, self.rounds))
            if name == "protocol.run_session":
                self.transcript = result
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, rounds: int):
        self.rounds = rounds
        saved = []
        for module, attr, name in TRACED_CALLS:
            mod = self.modules[module]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        try:
            yield self.wrap("cli.main", self.modules["cli"].main)
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def per_round_us(self, name: str) -> float:
        calls = self.calls[name]
        return 1e6 * sum(c[0] for c in calls) / sum(c[2] for c in calls)

    def median_ms(self, name: str, self_time: bool = False) -> float:
        return 1e3 * statistics.median(c[1] if self_time else c[0] for c in self.calls[name])


def deep_size(obj, exclude) -> int:
    """Bytes of every object reachable from ``obj``, each counted once."""
    seen = {id(x) for x in exclude}
    stack, total = [obj], 0
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        stack.extend(gc.get_referents(o))
    return total


def import_package() -> dict:
    """Import ``kcbs_qkd`` from this checkout's ``src``; exit 1 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        from kcbs_qkd import adversary, cli, kcbs, protocol, qutrit
    except ImportError as exc:
        sys.exit(f"run.py: cannot import kcbs_qkd from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"run.py: kcbs_qkd was imported from {cli.__file__}, not {SRC}")
    return {"adversary": adversary, "cli": cli, "kcbs": kcbs, "protocol": protocol,
            "qutrit": qutrit}


class Bench:
    def __init__(self, workload: str, seed: int, modules: dict) -> None:
        self.units, self.memory_session = WORKLOADS[workload]
        self.seed = seed
        self.mod = modules
        self.validator = checks.load_schema(ROOT)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = checks.check_published()

    def attempt(self, s: dict, tracer: Tracer | None = None):
        """Run and check one session: (start, end, report bytes), or None if it failed."""
        self.attempted += 1
        REPORT.unlink(missing_ok=True)
        CSV.unlink(missing_ok=True)
        try:
            with contextlib.ExitStack() as stack:
                main = self.mod["cli"].main
                if tracer is not None:
                    main = stack.enter_context(tracer.patched(s["spec"]["rounds"]))
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                start = time.perf_counter()
                code = main(s["argv"])
                end = time.perf_counter()
            raw = REPORT.read_bytes()
            problems = checks.check_report(json.loads(raw), s["spec"], code, self.validator)
            if s["csv"] and not problems:
                problems = checks.check_csv(CSV, json.loads(raw))
        except (Exception, SystemExit) as exc:  # a session may fail in any way
            traceback.print_exc()
            problems = [f"raised {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(s['argv'])}: {'; '.join(problems)}")
            print(f"FAILED {self.problems[-1]}", file=sys.stderr)
            return None
        return start, end, raw

    def loop(self, seconds: float, run_unit) -> None:
        """Run whole units until the next one would end after the deadline."""
        deadline = time.perf_counter() + seconds
        for index, unit in enumerate(self.units(self.seed)):
            t0 = time.perf_counter()
            run_unit(index, unit)
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                return

    # --- end to end ---------------------------------------------------------

    def setup_seconds(self, first: dict) -> list[float]:
        """Times from spawning an interpreter to its first session's tables ready."""
        times = []
        for _ in range(SETUP_SPAWNS):
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(first["spec"])],
                capture_output=True, text=True, check=True, timeout=60,
            )
            times.append(float(done.stdout) - t0)
        return times

    def determinism(self, first: dict) -> None:
        """The same config and seed, run twice, must give the same bytes."""
        s = capped(first, CHECK_ROUNDS)
        outputs = []
        for _ in range(2):
            result = self.attempt(s)
            if result is None:
                return
            outputs.append((result[2], CSV.read_bytes() if s["csv"] else b""))
        if outputs[0] != outputs[1]:
            self.problems.append(f"{' '.join(s['argv'])}: two runs gave different bytes")

    def peak_bytes_per_round(self, s: dict) -> float:
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.mod["cli"].main(s["argv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / s["spec"]["rounds"]

    def end_to_end(self, seconds: float) -> dict:
        first = next(self.units(self.seed))[0]
        setup = self.setup_seconds(first)
        spans, rounds = [], 0

        def run_unit(index, unit):
            nonlocal rounds
            for s in unit:
                result = self.attempt(s)
                if result is not None:
                    spans.append(result[:2])
                    rounds += s["spec"]["rounds"]

        with SpeedProbe() as probe:
            self.loop(seconds, run_unit)
        if not spans:
            return {}
        times = [probe.adjusted(*span) for span in spans]
        raw = [end - start for start, end in spans]
        print(f"unadjusted: {rounds / sum(raw):.1f} rounds/s, "
              f"p50 {1e3 * statistics.median(raw):.1f} ms; {len(spans)} sessions; "
              f"probe median {1e6 * statistics.median(probe.seconds):.1f} us", file=sys.stderr)
        self.determinism(first)
        peak = self.peak_bytes_per_round(self.memory_session(first))
        setup += self.setup_seconds(first)
        return {
            "rounds_per_s": rounds / sum(times),
            "session_ms_p50": 1e3 * statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_bytes_per_round": peak,
        }

    # --- per layer ----------------------------------------------------------

    def per_layer(self, seconds: float) -> dict:
        tracer = Tracer(self.mod)
        sessions: list[dict] = []  # the first unit's sessions, replayed round by round
        pairs = []  # (untraced, traced) session spans
        attempts = 0
        transcript = [0, 0]  # bytes, rounds
        csv_out = [0.0, 0, 0]  # seconds, bytes, rounds

        def run_unit(index, unit):
            nonlocal attempts
            for s in unit:
                plain = self.attempt(s)
                traced = self.attempt(s, tracer)
                if plain is None or traced is None:
                    continue
                if plain[2] != traced[2]:
                    self.problems.append(f"{' '.join(s['argv'])}: tracing changed the report")
                pairs.append((plain[:2], traced[:2]))
                attempts += json.loads(traced[2])["total_attempts"]
                if index == 0:
                    sessions.append(s)
                    self.out_of_band(s, tracer, transcript, csv_out)
                tracer.transcript = None

        with SpeedProbe() as probe:
            self.loop(seconds, run_unit)
        if not sessions:
            return {}
        stream_us, round_us, draws = self.replay(sessions)
        main = tracer.calls["cli.main"]
        rounds = sum(c[2] for c in main)
        return {
            "qutrit.stream_us_per_round": stream_us,
            "qutrit.draws_per_round": draws,
            "protocol.session_us_per_round": tracer.per_round_us("protocol.run_session"),
            "protocol.kernel_self_us_per_round": round_us - stream_us,
            "protocol.attempts_per_round": attempts / rounds,
            "protocol.transcript_bytes_per_round": transcript[0] / transcript[1],
            "protocol.key_stats_us_per_round": tracer.per_round_us("protocol.key_stats"),
            "protocol.security_us_per_round": tracer.per_round_us("protocol.estimate_security"),
            "adversary.estimate_pe_us_per_round": tracer.per_round_us("adversary.estimate_pe"),
            "protocol.csv_us_per_round": 1e6 * csv_out[0] / csv_out[2],
            "protocol.csv_bytes_per_round": csv_out[1] / csv_out[2],
            "adversary.oracle_ms": tracer.median_ms("adversary.attack_expectation"),
            "graphs.monogamy_ms": tracer.median_ms("graphs.verify_monogamy_decomposition"),
            "kcbs.basis_ms": tracer.median_ms("kcbs.standard_basis"),
            "cli.build_report_self_ms": tracer.median_ms("cli.build_report", self_time=True),
            "cli.report_json_ms": tracer.median_ms("cli.report_json"),
            "cli.uncovered_pct": 100 * sum(c[1] for c in main) / sum(c[0] for c in main),
            "trace.slowdown_ratio": sum(probe.adjusted(*t) for _, t in pairs)
            / sum(probe.adjusted(*p) for p, _ in pairs),
        }

    def out_of_band(self, s: dict, tracer: Tracer, transcript: list, csv_out: list) -> None:
        """Transcript size, and the CSV writer where the session did not call it."""
        t = tracer.transcript
        rounds = s["spec"]["rounds"]
        transcript[0] += deep_size(t, [t.config])
        transcript[1] += rounds
        if s["csv"]:
            seconds = tracer.calls["protocol.write_transcript_csv"][-1][0]
        else:
            t0 = time.perf_counter()
            self.mod["protocol"].write_transcript_csv(t, str(CSV))
            seconds = time.perf_counter() - t0
        csv_out[0] += seconds
        csv_out[1] += CSV.stat().st_size
        csv_out[2] += rounds

    def replay(self, sessions: list[dict]) -> tuple[float, float, float]:
        """Per-round cost of the random stream alone and of a whole round.

        Replays the first rounds of each session: ``RngStream(seed, r)`` plus
        as many draws as round r makes, against ``run_round(cfg, r, rng)``.
        The two alternate in blocks, so both see the same machine phases.
        """
        from kcbs_qkd.adversary import EveStrategy
        from kcbs_qkd.protocol import ProtocolConfig, run_round
        from kcbs_qkd.qutrit import RngStream

        work = []
        per_session = max(1, REPLAY_ROUNDS // len(sessions))
        basis = self.mod["kcbs"].standard_basis()
        for s in sessions:
            spec = s["spec"]
            cfg = ProtocolConfig(spec["mode"], basis, spec["rounds"],
                                 spec["sacrifice_fraction"], EveStrategy(**spec["eve"]),
                                 spec["seed"])
            for r in range(min(per_session, spec["rounds"])):
                rng = RngStream(cfg.seed, r)
                run_round(cfg, r, rng)
                work.append((cfg, r, rng.counter))
        stream_s = round_s = 0.0
        for b, lo in enumerate(range(0, len(work), REPLAY_BLOCK)):
            block = work[lo:lo + REPLAY_BLOCK]
            for kind in ((0, 1) if b % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                if kind == 0:
                    for cfg, r, draws in block:
                        rng = RngStream(cfg.seed, r)
                        for _ in range(draws):
                            rng.uniform()
                    stream_s += time.perf_counter() - t0
                else:
                    for cfg, r, _ in block:
                        run_round(cfg, r, RngStream(cfg.seed, r))
                    round_s += time.perf_counter() - t0
        n = len(work)
        return 1e6 * stream_s / n, 1e6 * round_s / n, sum(w[2] for w in work) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("KCBS_THREADS", None)  # one single-threaded caller
    modules = import_package()
    WORK.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, modules)
    try:
        metrics = bench.per_layer(args.seconds) if args.trace else bench.end_to_end(args.seconds)
    finally:
        for path in (REPORT, CSV):
            path.unlink(missing_ok=True)
    if not metrics:
        print("run.py: no session completed", file=sys.stderr)
        return 1
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
