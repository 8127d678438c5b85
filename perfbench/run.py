#!/usr/bin/env python3
"""Benchmark of the ebsmooth CLI: three workloads, end-to-end metrics, and a
traced run that splits the time by layer.

Usage, from the root of a source checkout (the program is run from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

NAME is one of the workloads below, or `all` to run each in turn.  `--tiny`
shrinks every size for a quick smoke run (perfbench/smoke.py).  numpy and
scipy are the only packages used beside the standard library.

Workloads (configs and inputs are made from --seed; see workloads.py)
---------------------------------------------------------------------
oracle-linear-d10  `oracle-check` at workers=1 on a 10-d isotropic Gaussian
    with a linear base and the closed-form Gaussian denoiser: the bare
    certification path and the serial baseline.  Philox normal draws in
    `stats` dominate; it bypasses mlp, energy, adversarial, sampler and the
    process pool.  The primary command spends n0=100, nc=1e5 per point; the
    secondary spends nc=1e3, so the per-point fixed cost (bound, quantile)
    shows.  Every output is checked against the exact linear oracle.
mixture-mlp-d64  set-up trains a softplus-MLP classifier (train-xhat
    --mode no_attack); the round runs `curve` at workers=2 (nc=1e4) and
    `walk-jump` on a 10-component 64-d mixture with the closed-form mixture
    denoiser.  Per noise sample, the mixture denoiser and the MLP forward
    dominate.  The only workload with the process pool and the sampler.
energy-adv-train  `train-energy` (hidden [128, 128]) then `train-xhat --mode
    adversarial` with the learned energy as denoiser: the write/gradient
    path (double backprop, EnergyNet HVPs inside PGD, Adam).  No
    certification.

Each run: set-up (configs, the dataset via `gen-data`, and W2's classifier
checkpoint) three times, timed, median reported; one untimed warm-up round;
then a closed loop of rounds, one client, each command started after the
previous one ended, until --seconds is spent.  Every command is a fresh
`python -m ebsmooth` child with OPENBLAS/OMP/MKL_NUM_THREADS=1, timed from
outside; os.wait4 gives its user+sys time and max RSS.  Every command's
outputs are checked (exit code, content, finiteness, oracle allowance) and
must be byte-identical to the warm-up's; a command that fails either way
counts in `failed`.

End-to-end metrics (--trace 0), all lower-is-better
---------------------------------------------------
setup_s                median set-up wall time (s)
wall_s                 median wall time of one round of measured commands (s)
cpu_s                  median user+sys time of one round (s)
peak_rss_mb            largest max RSS of one measured command (MB)
primary_ms_per_unit    median of command wall / units for the primary command:
                       cert_ms_per_point (oracle-check nc=1e5, curve) or
                       xhat_train_ms_per_step (ms)
secondary_ms_per_unit  the same for the secondary command:
                       cert_ms_per_point_nc1e3, walk_ms_per_chain or
                       energy_train_ms_per_step (ms)
The report above the result line also prints these under the per-workload
names, plus fail_share, oracle_violations, radius_to_oracle,
mean_cert_radius, energy_final_loss and xhat_final_adv_loss where they
apply.

Per-layer metrics (--trace 1)
-----------------------------
A fresh interpreter imports ebsmooth.cli three times (cli.import_s).  Then
rounds run in this process through `ebsmooth.cli.main` at workers=1,
alternately untraced and traced (tracing.py); per-layer times are medians
over traced rounds of the summed self time, counts come from one round and
must repeat exactly.  trace_overhead_share = traced / untraced round wall
- 1.  The table in tracing.LAYER_METRICS names, for each layer metric, the
end-to-end metric it should move and on which workload; the report prints
it.  The traced outputs must be byte-identical to the untraced warm-up (at
workers=2 for mixture-mlp-d64), and certify.samples must equal
points * (n0 + nc).

Output
------
Report lines (`env ...`, `command ...`, `metric NAME VALUE UNIT`, ...) and,
as the last line of stdout, one JSON object:

    {"correct": bool, "attempted": commands run, "failed": commands failed,
     "metrics": {NAME: {"value": number, "unit": str}, ...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1).  With --workload all, each workload's report and result line
are followed by one combined object whose metric names are
"<workload>/<metric>".  The same record, with the environment, is written to
.perfbench_work/results/.  Without ./src/ebsmooth the run exits with code 2
and prints no result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set before numpy is imported, here and in every child: two pool workers
# on two cores must not each start a BLAS thread pool.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
RUN_BUDGET_S = 165  # a run must end within 180 s
COMMAND_TIMEOUT_S = 120
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "primary_ms_per_unit": "ms", "secondary_ms_per_unit": "ms"}


class NothingMeasured(RuntimeError):
    """Set-up or every measured round failed, so there is no result."""


@dataclasses.dataclass
class Outcome:
    """One command run: its costs, and the error that failed it, if any."""

    cmd: object
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    quality: dict = dataclasses.field(default_factory=dict)
    error: str | None = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pid):
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


def spawn(argv, log_path, timeout):
    """Run a child to completion and return (exit code, wall s, user+sys s,
    max RSS MB).  os.wait4 reports this child and the children it reaped
    (pool workers), not the largest child this process ever ran."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _digest(path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def verify(outcome, returncode, log_text, reference):
    """Fill in outcome.quality or outcome.error from the exit code, the
    command's checks and byte identity with the first good run."""
    cmd = outcome.cmd
    if returncode != 0:
        tail = " | ".join(log_text.strip().splitlines()[-3:])
        outcome.error = f"exit code {returncode}: {tail}"
        return outcome
    try:
        outcome.quality = cmd.check(cmd.outdir)
    except CheckError as exc:
        outcome.error = f"check failed: {exc}"
        return outcome
    digests = {name: _digest(cmd.outdir / name) for name in cmd.outputs}
    expected = reference.setdefault(cmd.label, digests)
    changed = sorted(name for name in digests if digests[name] != expected[name])
    if changed:
        outcome.error = f"outputs differ from the first run: {', '.join(changed)}"
    return outcome


def _clear_outputs(cmd):
    for name in cmd.outputs:
        (cmd.outdir / name).unlink(missing_ok=True)


def run_command(cmd, reference, logdir, deadline):
    _clear_outputs(cmd)
    log_path = logdir / f"{len(list(logdir.iterdir())):04d}.log"
    timeout = max(1.0, min(COMMAND_TIMEOUT_S, deadline - time.monotonic()))
    code, wall, cpu, rss = spawn([sys.executable, "-m", "ebsmooth", *cmd.argv], log_path, timeout)
    log_text = log_path.read_text(errors="replace")
    return verify(Outcome(cmd, wall, cpu, rss), code, log_text, reference)


def run_in_process(cli, cmd, reference, tracer=None):
    """Run one command through ebsmooth.cli.main in this process, at
    workers=1, optionally inside a root span of the tracer."""
    _clear_outputs(cmd)
    argv = [*cmd.argv, *(["--workers", "1"] if cmd.pool else [])]
    captured = io.StringIO()
    span = tracer.span(f"cli.{cmd.argv[0]}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured), span:
            code = cli.main(argv)
    except Exception:  # a crash fails the command; the run goes on
        code = "exception"
        captured.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return verify(Outcome(cmd, wall), code, captured.getvalue(), reference)


def set_up(workload, seed, tiny, workdir, reference, deadline):
    """Prepare the workload SETUP_REPEATS times; return the median set-up
    wall time and the round commands of the last preparation."""
    times = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup_cmds, round_cmds = workload.prepare(seed, tiny, workdir / f"setup{rep}")
        for cmd in setup_cmds:
            outcome = run_command(cmd, reference, workdir / "logs", deadline)
            if outcome.error:
                raise NothingMeasured(f"{cmd.label}: {outcome.error}")
        times.append(time.perf_counter() - start)
    return statistics.median(times), round_cmds


def closed_loop(round_cmds, seconds, reference, logdir, deadline):
    """Rounds of the measured commands, started until `seconds` are spent
    (or a typical round would pass the run's deadline)."""
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append([run_command(c, reference, logdir, deadline) for c in round_cmds])
        typical = statistics.median(sum(o.wall for o in r) for r in rounds)
        now = time.monotonic()
        if now - start >= seconds or now + typical > deadline:
            return rounds


def traced_rounds(round_cmds, seconds, reference, deadline):
    """Alternate untraced and traced in-process rounds, started until
    `seconds` are spent; return (untraced walls, traced walls, per-round span metrics,
    traced outcomes, absent span names)."""
    sys.path.insert(0, str(SRC))
    from ebsmooth import cli

    untraced, traced, per_round, outcomes = [], [], [], []
    absent = set()
    start = time.monotonic()
    while True:
        plain = [run_in_process(cli, c, reference) for c in round_cmds]
        untraced.append(sum(o.wall for o in plain))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outs = [run_in_process(cli, c, reference, tracer) for c in round_cmds]
        finally:
            tracer.uninstall()
        traced.append(sum(o.wall for o in outs))
        per_round.append(tracing.span_metrics(tracer.spans))
        outcomes += plain + outs
        absent = tracer.absent
        now = time.monotonic()
        if now - start >= seconds or now + untraced[-1] + traced[-1] > deadline:
            return untraced, traced, per_round, outcomes, absent


def merged_quality(outcomes):
    """Quality values of the last good run of each command, the primary
    command's winning where keys collide."""
    order = {"secondary": 0, None: 0, "primary": 1}
    quality = {}
    for o in sorted((o for o in outcomes if o.error is None), key=lambda o: order[o.cmd.role]):
        quality.update(o.quality)
    return quality


def e2e_metrics(setup_s, rounds):
    good = [r for r in rounds if all(o.error is None for o in r)]
    if not good:
        raise NothingMeasured("no round of measured commands succeeded")

    def per_unit(role):
        return statistics.median(1e3 * o.wall / o.cmd.units for r in good for o in r
                                 if o.cmd.role == role)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(o.wall for o in r) for r in good),
        "cpu_s": statistics.median(sum(o.cpu for o in r) for r in good),
        "peak_rss_mb": max(o.rss_mb for r in good for o in r),
        "primary_ms_per_unit": per_unit("primary"),
        "secondary_ms_per_unit": per_unit("secondary"),
    }


def layer_metrics(per_round, quality, extra):
    """Per-layer values: times are medians over traced rounds, counts come
    from the first round (the caller checks that they repeat)."""
    values = {}
    for name, unit, _, source, _ in tracing.LAYER_METRICS:
        kind, key = source.split(":", 1)
        if kind == "quality":
            values[name] = quality.get(key, 0)
        elif source in extra:
            values[name] = extra[source]
        elif unit in ("s", "ms"):
            values[name] = statistics.median(r.get(source, 0.0) for r in per_round)
        else:
            values[name] = per_round[0].get(source, 0)
    return values


def git_sha():
    if not (ROOT / ".git").exists():  # a plain source checkout
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    import numpy
    import scipy

    tree = hashlib.sha256()
    for path in sorted((SRC / "ebsmooth").rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha(),
        "src_sha256": tree.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def command_lines(outcomes):
    lines = []
    labels = dict.fromkeys(o.cmd.label for o in outcomes)
    for label in labels:
        runs = [o for o in outcomes if o.cmd.label == label]
        walls = [o.wall for o in runs]
        lines.append(
            f"command {label} runs={len(runs)} failed={sum(o.error is not None for o in runs)} "
            f"wall_s_p50={statistics.median(walls):.4f} wall_s_max={max(walls):.4f} "
            f"cpu_s_p50={statistics.median(o.cpu for o in runs):.4f} "
            f"max_rss_mb={max(o.rss_mb for o in runs):.1f}")
    return lines


def traced_report(round_cmds, args, logdir, reference, deadline):
    """The traced run: per-layer values, outcomes, report lines, problems."""
    imports = [spawn([sys.executable, "-c", "import ebsmooth.cli"],
                     logdir / f"import{i}.log", COMMAND_TIMEOUT_S)
               for i in range(IMPORT_REPEATS)]
    if any(code != 0 for code, *_ in imports):
        raise NothingMeasured("a fresh interpreter cannot import ebsmooth.cli")
    untraced, traced, per_round, outcomes, absent = traced_rounds(
        round_cmds, args.seconds, reference, deadline)
    extra = {
        "run:cli.import_s": statistics.median(wall for _, wall, _, _ in imports),
        "run:trace_overhead_share": statistics.median(traced) / statistics.median(untraced) - 1,
    }
    values = layer_metrics(per_round, merged_quality(outcomes), extra)
    problems = []
    counts = [k for k in per_round[0]
              if not k.endswith(":self") and not k.startswith("run:certify.point_ms")]
    if any(r.get(k) != per_round[0].get(k) for r in per_round for k in counts):
        problems.append("per-layer counts differ between traced rounds")
    expected = sum(c.samples for c in round_cmds)
    if values["certify.points"] and values["certify.samples"] != expected:
        problems.append(f"certify.samples {values['certify.samples']} != "
                        f"points * (n0 + nc) = {expected}")
    units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
    moves = {name: m for name, _, _, _, m in tracing.LAYER_METRICS}
    lines = [f"rounds untraced={len(untraced)} traced={len(traced)} "
             f"absent={','.join(sorted(absent)) or '-'}"]
    lines += [f"metric {k} {v!r} {units[k]}  moves: {moves[k]}" for k, v in values.items()]
    return values, units, outcomes, lines, problems


def untraced_report(workload, setup_s, round_cmds, args, logdir, reference, deadline):
    """The measured closed loop: end-to-end values, outcomes, report lines."""
    rounds = closed_loop(round_cmds, args.seconds, reference, logdir, deadline)
    values = e2e_metrics(setup_s, rounds)
    outcomes = [o for r in rounds for o in r]
    quality_units = {source.split(":", 1)[1]: unit
                     for _, unit, _, source, _ in tracing.LAYER_METRICS
                     if source.startswith("quality:")}
    first, second = workload.unit_names
    report = {first: (values["primary_ms_per_unit"], "ms"),
              second: (values["secondary_ms_per_unit"], "ms"),
              **{k: (v, quality_units[k]) for k, v in merged_quality(outcomes).items()}}
    lines = [f"rounds {len(rounds)}"]
    lines += [f"metric {k} {v!r} {E2E_UNITS[k]}" for k, v in values.items()]
    lines += [f"metric {k} {v!r} {u}" for k, (v, u) in report.items()]
    return values, E2E_UNITS, outcomes, lines, []


def run_workload(args):
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    logdir = workdir / "logs"
    shutil.rmtree(workdir, ignore_errors=True)
    logdir.mkdir(parents=True)
    reference = {}
    try:
        setup_s, round_cmds = set_up(workload, args.seed, args.tiny, workdir, reference, deadline)
        warmup = [run_command(c, reference, logdir, deadline) for c in round_cmds]
        if args.trace:
            values, units, outcomes, lines, problems = traced_report(
                round_cmds, args, logdir, reference, deadline)
        else:
            values, units, outcomes, lines, problems = untraced_report(
                workload, setup_s, round_cmds, args, logdir, reference, deadline)
    except NothingMeasured as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = warmup if args.trace else outcomes  # in-process runs have no rusage
    outcomes = warmup + outcomes
    failed = sum(o.error is not None for o in outcomes)
    for o in outcomes:
        if o.error:
            print(f"perfbench: {o.cmd.label}: {o.error}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    env = environment()
    lines = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} tiny={int(args.tiny)}",
             "env " + json.dumps(env, sort_keys=True),
             *command_lines(measured),
             f"metric fail_share {failed / len(outcomes)!r} share",
             *lines, *problems]
    print("\n".join(lines))
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny, env=env, report=lines)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), *(["--tiny"] if args.tiny else [])]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke run")
    args = parser.parse_args(argv)
    if not (SRC / "ebsmooth" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'ebsmooth'} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
