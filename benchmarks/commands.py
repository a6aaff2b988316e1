"""Running tmkit commands as subprocesses and judging what they produce."""
from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import workloads
from workloads import Op, Outcome

SETUP_REPEATS = 5
#: A child that burns this much CPU is stuck; the kernel stops it.
CHILD_CPU_LIMIT_S = 60
CALIBRATE_EVERY_S = 1.0


def tmkit_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("TMKIT_COLOR", None)
    return env


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def spawn(argv: list[str], work: Path, env: dict[str, str]):
    """Run one child to completion; return (wall seconds, max RSS in KiB,
    outcome)."""
    out_path, err_path = work / ".stdout", work / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, cwd=work, preexec_fn=_limit_cpu,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(
        proc.returncode,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
        work,
    )
    return elapsed, usage.ru_maxrss, outcome


def run_tmkit(args: tuple[str, ...], work: Path, env: dict[str, str]):
    return spawn([sys.executable, "-m", "tmkit", *args], work, env)


def judge(op: Op, outcome: Outcome) -> tuple[str, Optional[str]]:
    """("ok"|"crash"|"wrong", message).  A crash is an unexpected exit code
    or a traceback; a wrong answer is the expected exit with bad output."""
    if "Traceback" in outcome.stderr or outcome.exit_code != op.exit_code:
        last = (outcome.stderr.strip().splitlines() or [""])[-1]
        return "crash", f"exit {outcome.exit_code}: {last[:160]}"
    try:
        message = op.check(outcome)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        message = f"output unreadable: {exc!r}"
    return ("wrong", message) if message else ("ok", None)


@dataclass
class Tally:
    attempted: int = 0
    crashed: int = 0
    wrong: int = 0
    messages: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.crashed + self.wrong

    def record(self, label: str, verdict: str, message: Optional[str]) -> None:
        self.attempted += 1
        if verdict == "crash":
            self.crashed += 1
        elif verdict == "wrong":
            self.wrong += 1
        if message:
            self.messages.setdefault(label, f"{verdict}: {message}")


def op_label(op: Op) -> str:
    return " ".join(Path(a).name if "/" in a else a for a in op.args)


def split_probes(ops: list[Op]) -> tuple[list[Op], list[Op]]:
    """(the timed ops, the known-defect probes)."""
    return [op for op in ops if not op.probe], [op for op in ops if op.probe]


def run_probes(probes: list[Op], work: Path, env: dict[str, str]):
    """Run each probe once: (one printable verdict line per probe, the
    number of wrong answers).  A crash is the known defect; a wrong answer
    is not, and makes the run incorrect."""
    lines, wrong = [], 0
    for op in probes:
        _, _, outcome = run_tmkit(op.args, work, env)
        verdict, message = judge(op, outcome)
        if verdict == "wrong":
            wrong += 1
        if verdict == "ok":
            lines.append(f"probe {op_label(op)}: passes (the known defect is gone)")
        else:
            lines.append(f"probe {op_label(op)}: known defect: {verdict}: {message}")
    return lines, wrong


def setup(workload: str, seed: int, root: Path, env: dict[str, str]):
    """Generate and write the inputs, then warm up (one ``tmkit --version``
    in a fresh interpreter).  Repeated, each time followed by a calibrate()
    reading; returns the ops and each duration relative to its reading."""
    work = root / ".bench_work" / workload
    relative, ops = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ops = workloads.build(workload, seed, work, root)
        _, _, warm = run_tmkit(("--version",), work, env)
        elapsed = time.perf_counter() - start
        if warm.exit_code != 0 or not warm.stdout.startswith("tmkit, version"):
            raise SystemExit(f"error: tmkit does not start: {warm.stderr.strip()}")
        relative.append(elapsed / calibrate(work, env))
    return ops, work, relative


@dataclass
class Measurement:
    samples: list[list[float]]  # per op, wall seconds of its passing runs
    relative: list[list[float]]  # the same, each over the next calibration
    tally: Tally
    peak_kib: int
    passes: int
    calibration: list[float]  # wall seconds per calibrate() reading


_CALIBRATION_CODE = (
    "table = {}\n"
    "for i in range(60000):\n"
    "    table[f'k{i}'] = (i, [i])\n"
    "sorted(table.items(), key=lambda item: item[1][0] % 977)\n"
)


def calibrate(work: Path, env: dict[str, str]) -> float:
    """Wall seconds a fresh interpreter takes to run a fixed pure-Python
    task (string keys, dict inserts, tuples, a keyed sort): a reading of
    the machine's current speed for a child like the tmkit commands."""
    elapsed, _, outcome = spawn([sys.executable, "-c", _CALIBRATION_CODE], work, env)
    if outcome.exit_code != 0:
        raise SystemExit(f"error: the calibration task failed: {outcome.stderr}")
    return elapsed


def measure(ops: list[Op], work: Path, env: dict[str, str], seconds: float):
    """Cycle through the ops (probes left out) until ``seconds`` have
    passed (always at least one full pass); an op starts only if its last
    time still fits.  After every ``CALIBRATE_EVERY_S`` of command time,
    and at the end, a calibrate() reading is taken, and each passing run
    since the last reading is also recorded relative to it."""
    run = Measurement([[] for _ in ops], [[] for _ in ops], Tally(), 0, 0, [])
    pending: list[tuple[int, float]] = []
    last: list[float] = [0.0] * len(ops)
    since_calibration = 0.0

    def take_calibration() -> None:
        reading = calibrate(work, env)
        run.calibration.append(reading)
        for i, elapsed in pending:
            run.relative[i].append(elapsed / reading)
        pending.clear()

    deadline = time.perf_counter() + seconds
    while True:
        for i, op in enumerate(ops):
            if run.passes and time.perf_counter() + last[i] > deadline:
                if pending:
                    take_calibration()
                return run
            elapsed, rss, outcome = run_tmkit(op.args, work, env)
            last[i] = elapsed
            run.peak_kib = max(run.peak_kib, rss)
            verdict, message = judge(op, outcome)
            run.tally.record(op_label(op), verdict, message)
            if verdict == "ok":
                run.samples[i].append(elapsed)
                pending.append((i, elapsed))
            since_calibration += elapsed
            if since_calibration >= CALIBRATE_EVERY_S:
                take_calibration()
                since_calibration = 0.0
        run.passes += 1
