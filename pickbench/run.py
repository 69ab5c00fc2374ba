"""Pick-trial benchmark for shelfpick.

Runs ``shelfpick batch`` in-process through ``cli.main`` on one workload,
checks every trial's output with the public API, and prints each metric by
name and unit; the last line of standard output is one JSON object.

    python3 pickbench/run.py --workload noisy --seed 0 --seconds 35 --trace 0

Workloads share ``shelf: mix``, ``clutter: true`` and the seeds
``{start: --seed, count: N}``, and differ only in ``noise_sigma`` and
``declutter``; N (see SEEDS) sizes one pass to about 30 s. Each is a closed
loop in one single-threaded process: the next trial starts when the
previous one returns.

``--trace 0`` times whole batch passes over the seeds, repeating the pass
while another fits in ``--seconds``, and reports the end-to-end metrics.
Only the trials and the observations that start each round are timed; a
round runs from one observation to the next, or to the end of its trial.
``--trace 1`` runs the first half of the seeds untraced, then with every
layer wrapped (see tracer.py), then untraced again, and reports the
per-layer metrics; the traced pass minus the mean of the untraced ones
around it is the tracing overhead, so warm-up and drift cancel. Either way
every pass over the same seeds must write the same CSV rows and trial logs.
Files go to ``.pickbench_work/`` in the checkout; spans of a traced run are
kept there, everything else is removed.
"""

from __future__ import annotations

import os

# pinned before numpy loads, so BLAS and OpenMP stay single-threaded here
# and in the set-up probes, which inherit the environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "shelfpick" / "__init__.py").is_file():
    # never fall back to an installed copy: the benchmark measures this tree
    raise SystemExit(f"pickbench: no shelfpick sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402
from shelfpick import NoiseConfig, PickConfig, cli  # noqa: E402

from checks import check_trial  # noqa: E402
from tracer import LAYERS, SITES, TRIAL_SITES, Tracer  # noqa: E402

VERIFY_SEEDS = 5
SETUP_RUNS = 9
WORK_DIR = ROOT / ".pickbench_work"

WORKLOADS = {
    "clean": {"noise_sigma": 0.0, "declutter": True},
    "noisy": {"noise_sigma": 0.003, "declutter": True},
    "ablated": {"noise_sigma": 0.003, "declutter": False},
}

# seeds per run: one pass takes about 30 s on each workload, so a 35 s run
# holds as many distinct scenes as fit; the spread between runs on different
# seeds comes mostly from which scenes a run draws
SEEDS = {"clean": 130, "noisy": 100, "ablated": 330}

# name -> (unit, better); measured with only TRIAL_SITES wrapped
END_TO_END = {
    "trials_per_s": ("1/s", "higher"),
    "round_ms_p50": ("ms", "lower"),
    "round_ms_p90": ("ms", "lower"),
    "ms_per_round": ("ms", "lower"),
    "ok_share": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer_units() -> dict[str, tuple[str, str]]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = ("count", "lower")
        units[f"{layer}.ms_per_round"] = ("ms", "lower")
        units[f"{layer}.self_ms_per_round"] = ("ms", "lower")
    units.update({
        "geometry.contact_from_chord.raised.NoIntersection": ("count", "lower"),
        "geometry.contact_from_chord.raised.TangentChord": ("count", "lower"),
        "wrench.grasp_quality.inf_share": ("ratio", "lower"),
        "planner.is_reachable.false_share": ("ratio", "lower"),
        "declutter.plan_declutter.none_share": ("ratio", "lower"),
        "qp.solve_qp.iterations_per_call": ("count/call", "lower"),
        "qp.solve_qp.infeasible": ("count", "lower"),
        "qp.solve_qp.max_iterations": ("count", "lower"),
        "sim.run_grasp.failed.approach": ("count", "lower"),
        "sim.run_grasp.failed.closure": ("count", "lower"),
        "sim.run_grasp.failed.extraction": ("count", "lower"),
        "planner.candidates_per_round": ("count/round", "higher"),
        "declutter.solves_per_candidate": ("ratio", "lower"),
        "sim.rounds_per_trial": ("count/trial", "lower"),
        "sim.success_rate": ("ratio", "higher"),
        "sim.run_pick.ms_p50": ("ms", "lower"),
        "sim.run_pick.ms_p90": ("ms", "lower"),
        "cli.batch.overhead_ms_per_trial": ("ms", "lower"),
        "trace.overhead_ms_per_round": ("ms", "lower"),
    })
    return units


PER_LAYER = _per_layer_units()

# derived metrics named outside the layer they come from
_DERIVED_FROM = {
    "planner.candidates_per_round": "planner.plan_grasps",
    "declutter.solves_per_candidate": "declutter.plan_declutter",
}


def _source_layer(metric: str) -> str | None:
    for layer in LAYERS:
        if metric.startswith(layer + "."):
            return layer
    return _DERIVED_FROM.get(metric)


def batch_config(workload: str, start: int, count: int) -> dict:
    return {
        "seeds": {"start": start, "count": count},
        "shelf": "mix",
        "clutter": True,
        **WORKLOADS[workload],
    }


def pick_config(workload: str) -> PickConfig:
    """The PickConfig ``shelfpick batch`` builds for the workload, from the
    public API and its defaults."""
    flags = WORKLOADS[workload]
    return PickConfig(
        noise=NoiseConfig(point_sigma=flags["noise_sigma"]),
        declutter_enabled=flags["declutter"],
    )


@dataclass
class Pass:
    """One ``shelfpick batch`` call and what it wrote."""

    count: int
    wall: float
    trial_times: list[float]
    round_times: list[float]
    error: str | None
    header: list[str] = field(default_factory=list)
    rows: list[str] = field(default_factory=list)
    logs: dict[str, bytes] = field(default_factory=dict)
    rounds: int = 0

    def row_dicts(self) -> list[dict]:
        return [dict(zip(self.header, next(csv.reader([row])))) for row in self.rows]


def _log_name(row: dict) -> str:
    return f"trial_{int(row['seed']):05d}_{row['shelf']}.json"


def run_batch(cfg: dict, pass_dir: Path, tracer: Tracer) -> Pass:
    trial_dir = pass_dir / "trials"
    csv_path = pass_dir / "runs.csv"
    config_path = pass_dir / "config.json"
    pass_dir.mkdir(parents=True)
    config_path.write_text(json.dumps(dict(cfg, csv=str(csv_path), trial_dir=str(trial_dir))))

    first = len(tracer.names)
    error = None
    with redirect_stdout(io.StringIO()):
        try:
            code = tracer.call("cli.batch", cli.main, ["batch", str(config_path)])
            if code != 0:
                error = f"shelfpick batch exited {code}"
        except Exception:
            error = traceback.format_exc()
    names, starts, ends = tracer.names, tracer.starts, tracer.ends
    trials = [i for i in range(first, len(names)) if names[i] == "sim.run_pick"]
    # a round runs from one observation to the next, or to the trial's end
    marks: dict[int, list[float]] = {i: [] for i in trials}
    for i in range(first, len(names)):
        if names[i] == "sim.observe" and tracer.parents[i] in marks:
            marks[tracer.parents[i]].append(starts[i])
    result = Pass(
        count=cfg["seeds"]["count"],
        wall=ends[first] - starts[first],
        trial_times=[ends[i] - starts[i] for i in trials],
        round_times=[
            b - a
            for i in trials
            for a, b in zip(marks[i], marks[i][1:] + [ends[i]])
        ],
        error=error,
    )
    if csv_path.exists():
        lines = [ln for ln in csv_path.read_text().splitlines() if ln and not ln.startswith("#")]
        if lines:
            result.header = lines[0].split(",")
            result.rows = lines[1:]
    if trial_dir.exists():
        for path in sorted(trial_dir.glob("*.json")):
            data = path.read_bytes()
            result.logs[path.name] = data
            events = json.loads(data)["result"]["events"]
            result.rounds += sum(1 for e in events if e["event"] == "plan")
    return result


def check_pass(run: Pass, workload: str) -> dict[str, list[str]]:
    """Output-check failures of one pass, by trial log name."""
    config = pick_config(workload)
    predict = WORKLOADS[workload]["noise_sigma"] == 0.0
    failures = {}
    for row in run.row_dicts():
        if row["outcome"] == "Unpackable":
            continue
        name = _log_name(row)
        if name not in run.logs:
            failures[name] = ["no trial log"]
            continue
        try:
            problems = check_trial(json.loads(run.logs[name]), row, config, predict)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        if problems:
            failures[name] = problems
    return failures


def tally(passes: list[Pass], bad: dict[str, list[str]]) -> tuple[int, int]:
    """(attempted, failed) trials over all passes; pass 0 is the reference.

    A trial fails when it raised or never ran (its CSV row is missing), when
    its pass-0 output failed a check, or when its CSV row or log differs from
    pass 0's for the same seed.
    """
    reference = passes[0]
    ref_rows = dict(zip(map(_log_name, reference.row_dicts()), reference.rows))
    attempted = failed = 0
    for run in passes:
        rows = run.row_dicts()
        unpackable = sum(1 for row in rows if row["outcome"] == "Unpackable")
        attempted += run.count - unpackable
        failed += run.count - len(rows)
        for row, line in zip(rows, run.rows):
            if row["outcome"] == "Unpackable":
                continue
            name = _log_name(row)
            if (
                name in bad
                or ref_rows.get(name) != line
                or reference.logs.get(name) != run.logs.get(name)
            ):
                failed += 1
                bad.setdefault(name, ["output differs between passes over the same seed"])
    return max(attempted, 1), min(failed, max(attempted, 1))


def measure_setup(cfg: dict, work: Path, runs: int) -> list[float]:
    config_path = work / "setup.json"
    config_path.write_text(json.dumps(dict(cfg, csv=str(work / "setup.csv"))))
    seconds = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds.append(float(out.stdout.split()[-1]))
    return seconds


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _p50_p90(seconds: list[float]) -> tuple[float, float]:
    """Median and 90th percentile in ms (0 for fewer than two samples)."""
    if len(seconds) < 2:
        return 0.0, 0.0
    return 1e3 * statistics.median(seconds), 1e3 * statistics.quantiles(seconds, n=10)[-1]


def end_to_end_metrics(passes: list[Pass], ok_share: float, setup: list[float],
                       peak_rss_mb: float) -> dict[str, float]:
    times = [t for run in passes for t in run.trial_times]
    rounds = sum(run.rounds for run in passes)
    p50, p90 = _p50_p90([t for run in passes for t in run.round_times])
    return {
        "trials_per_s": _share(len(times), sum(run.wall for run in passes)),
        "round_ms_p50": p50,
        "round_ms_p90": p90,
        "ms_per_round": 1e3 * _share(sum(times), rounds),
        "ok_share": ok_share,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(tracer: Tracer, traced: Pass, untraced: list[Pass]) -> dict[str, float]:
    rounds = traced.rounds
    trials = len(traced.trial_times)
    totals = tracer.totals()
    counts = tracer.counts
    out: dict[str, float] = {}
    for layer in LAYERS:
        calls, total, own = totals.get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.ms_per_round"] = 1e3 * _share(total, rounds)
        out[f"{layer}.self_ms_per_round"] = 1e3 * _share(own, rounds)

    def calls(layer: str) -> int:
        return totals.get(layer, (0,))[0]

    for kind in ("NoIntersection", "TangentChord"):
        name = f"geometry.contact_from_chord.raised.{kind}"
        out[name] = counts[name]
    out["wrench.grasp_quality.inf_share"] = _share(
        counts["wrench.grasp_quality.inf"], calls("wrench.grasp_quality"))
    out["planner.is_reachable.false_share"] = _share(
        counts["planner.is_reachable.false"], calls("planner.is_reachable"))
    out["declutter.plan_declutter.none_share"] = _share(
        counts["declutter.plan_declutter.none"], calls("declutter.plan_declutter"))
    out["qp.solve_qp.iterations_per_call"] = _share(
        counts["qp.solve_qp.iterations"], calls("qp.solve_qp"))
    out["qp.solve_qp.infeasible"] = counts["qp.solve_qp.status.Infeasible"]
    out["qp.solve_qp.max_iterations"] = counts["qp.solve_qp.status.MaxIterations"]
    for stage in ("approach", "closure", "extraction"):
        name = f"sim.run_grasp.failed.{stage}"
        out[name] = counts[name]

    candidates = counts["planner.plan_grasps.candidates"]
    outcomes = [row["outcome"] for row in traced.row_dicts()]
    batch_total, pick_total = totals["cli.batch"][1], totals.get("sim.run_pick", (0, 0.0))[1]
    out["planner.candidates_per_round"] = _share(candidates, rounds)
    out["declutter.solves_per_candidate"] = _share(calls("declutter.plan_declutter"), candidates)
    out["sim.rounds_per_trial"] = _share(rounds, trials)
    out["sim.success_rate"] = _share(outcomes.count("Success"), len(outcomes))
    # trial-time percentiles of the untraced passes; they follow the scene
    # mix (trials take 1 to 4 rounds), so they are not end-to-end metrics
    untraced_times = [t for run in untraced for t in run.trial_times]
    out["sim.run_pick.ms_p50"], out["sim.run_pick.ms_p90"] = _p50_p90(untraced_times)
    out["cli.batch.overhead_ms_per_trial"] = 1e3 * _share(batch_total - pick_total, trials)
    out["trace.overhead_ms_per_round"] = 1e3 * (
        _share(sum(traced.trial_times), traced.rounds)
        - _share(sum(untraced_times), sum(run.rounds for run in untraced))
    )

    # a layer the program no longer has is reported absent, not as zero
    return {name: value for name, value in out.items()
            if _source_layer(name) not in tracer.absent}


def traced_passes(cfg: dict, work: Path) -> tuple[list[Pass], Tracer]:
    """The seeds untraced, with every layer wrapped, and untraced again;
    the passes and the traced pass's tracer."""
    passes = []
    tracers = {}
    for label, sites in (("before", TRIAL_SITES), ("traced", SITES), ("after", TRIAL_SITES)):
        tracers[label] = Tracer()
        tracers[label].install(sites)
        try:
            passes.append(run_batch(cfg, work / label, tracers[label]))
        finally:
            tracers[label].uninstall()
    return passes, tracers["traced"]


def timed_passes(cfg: dict, work: Path, seconds: float) -> tuple[list[Pass], Pass, float]:
    """Whole passes while another fits in ``seconds`` (at least one), the
    peak RSS after them, and an untimed pass over the first seeds."""
    timer = Tracer()
    timer.install(TRIAL_SITES)
    try:
        timed = [run_batch(cfg, work / "pass0", timer)]
        while sum(run.wall for run in timed) + timed[-1].wall <= seconds:
            timed.append(run_batch(cfg, work / f"pass{len(timed)}", timer))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        count = min(VERIFY_SEEDS, cfg["seeds"]["count"])
        verify_cfg = dict(cfg, seeds={"start": cfg["seeds"]["start"], "count": count})
        verify = run_batch(verify_cfg, work / "verify", timer)
    finally:
        timer.uninstall()
    return timed, verify, peak_rss_mb


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            count: int | None = None, setup_runs: int = SETUP_RUNS,
            work_root: Path = WORK_DIR) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and report lines."""
    count = SEEDS[workload] if count is None else count
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = [
        "env: " + json.dumps({
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }),
    ]
    try:
        if trace:
            cfg = batch_config(workload, seed, max(1, count // 2))
            passes, tracer = traced_passes(cfg, work)
            measured = passes[1:2]
            values = per_layer_metrics(tracer, passes[1], [passes[0], passes[2]])
            units = PER_LAYER
            spans = work_root / f"spans-{workload}-{seed}.tsv"
            tracer.write(spans)
            report.append(f"spans: {len(tracer.names)} written to {spans}")
            if tracer.absent:
                report.append("absent layers: " + ", ".join(tracer.absent))
        else:
            cfg = batch_config(workload, seed, count)
            setup = measure_setup(cfg, work, setup_runs)
            measured, verify, peak_rss_mb = timed_passes(cfg, work, seconds)
            passes = measured + [verify]
            units = END_TO_END
        bad = check_pass(passes[0], workload)
        attempted, failed = tally(passes, bad)
        errors = [run.error for run in passes if run.error]
        if not trace:
            values = end_to_end_metrics(measured, 1.0 - failed / attempted, setup, peak_rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report.append(
        f"trials: {sum(len(run.trial_times) for run in measured)} in {len(measured)} "
        f"pass(es) over seeds {seed}..{seed + cfg['seeds']['count'] - 1}, "
        f"{sum(run.rounds for run in measured)} rounds"
    )
    for name, problems in sorted(bad.items()):
        report.append(f"FAILED {name}: " + "; ".join(problems))
    for error in errors:
        report.append("ERROR " + error.strip().replace("\n", "\n  "))
    for name, value in values.items():
        report.append(f"{name} {value:.6g} {units[name][0]}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in values.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
