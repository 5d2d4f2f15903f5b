"""End-to-end and per-layer benchmark of the somatic-vae pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the
checkout's ``src/somatic_vae``. Each pass is one child process
(``pipeline.py``) that generates the workload's TSV inputs from the seed
and then runs ``preprocess -> train -> embed -> eval-recon ->
eval-cluster (embeddings) -> eval-cluster --pca 16 -> probe (embeddings)
-> probe (raw cohort)`` through ``somatic_vae.cli.run``.

``--trace 0`` runs one pass that repeats rounds of all stages until S
seconds have gone by, with ``train`` at least twice, and times set-up
(import plus one cohort-cache load) in fresh processes spread over the
pass. It reports the end-to-end metrics from per-stage means and the
median set-up time.
``--trace 1`` runs one untraced and one traced pass and reports the
untraced stage times, the per-function numbers, span coverage per stage
and the tracing overhead.

Every stage call and every set-up process is an operation that either
passes its checks or counts as failed. Within one run, every ``train``
call must write a bit-identical ``history.tsv``: the repeated call in
``--trace 0``, the untraced and the traced pass in ``--trace 1``. No
state is kept between runs. The last stdout line is the result JSON;
the lines before it give the environment and per-stage detail.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from pipeline import STAGES, n_train
from spans import PER_CALL, TARGETS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
PIPELINE = os.path.join(HERE, "pipeline.py")
WORK = ".perfbench-work"  # scratch space inside the checkout, removed after each run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170  # a run must end within 180 s; children are killed past this
# untraced stage times reported per layer, grouped as a user meets them
STAGE_GROUPS = {
    "preprocess": ("preprocess",),
    "train": ("train",),
    "infer": ("embed", "eval_recon"),
    "eval": ("cluster_vae", "cluster_pca", "probe_vae", "probe_raw"),
}


class HarnessError(RuntimeError):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """The caller's environment with BLAS threads capped at nproc, so the
    one process that computes never oversubscribes the cores."""
    env = dict(os.environ)
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            env[var] = str(cap)
    return env


def environment(env):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "threads": {var: env.get(var) for var in BLAS_THREAD_VARS},
        "cpu": cpu,
    }


def run_pass(workload, seed, seconds, workdir, env, deadline, flags=()):
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, PIPELINE, workload.name, str(seed), str(seconds), workdir, result_path]
    cmd += list(flags)
    # its own process group, so the set-up probes it starts die with it
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as exc:  # the time limit, or an interrupt
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise HarnessError(f"run exceeded {RUN_LIMIT_S} s") from None
        raise
    if proc.returncode != 0:
        raise HarnessError(f"pipeline pass exited {proc.returncode}:\n{output[-3000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_determinism(passes):
    """Problems if the passes' history.tsv files differ; each pass has
    already compared its own repeated train calls."""
    if any(p["stages"]["train"]["failed"] for p in passes):
        return []  # already counted
    hashes = {p["history_sha256"] for p in passes}
    if len(hashes) > 1:
        return [f"history.tsv differs between passes: {sorted(hashes)}"]
    return []


def stage_s(p, names, first=False):
    """Summed per-stage seconds: the mean over a stage's calls, or its
    first call. Run speed on a shared machine drifts between fast and
    slow phases lasting seconds; the mean over calls spread across the
    run follows the share of each phase smoothly, where a median jumps
    between the two."""
    pick = (lambda xs: xs[0]) if first else statistics.fmean
    return sum(pick(p["stages"][s]["seconds"]) for s in names)


def end_to_end(workload, result):
    """Stage times are means over the pass's calls, set-up the median of
    its processes; a missing quality number (its stage failed, which is
    counted) reads 0.

    The time of a single short stage is not an end-to-end metric: on a
    shared machine one multi-second stage call spreads 15-40 % from run
    to run, so those times are per-layer numbers (see per_layer)."""
    quality = {k: v for k, v in result["quality"].items() if v is not None}
    rows = workload.epochs * n_train(result["n_samples"])
    return {
        "setup_s": statistics.median(result["setup"]["seconds"]),
        "train_samples_per_s": rows / stage_s(result, ("train",)),
        "pipeline_s": stage_s(result, STAGES),
        "peak_rss_mb": result["peak_rss_mb"],
        "val_micro_f1": quality.get("val_micro_f1", 0.0),
        "vae_nmi": quality.get("vae_nmi", 0.0),
        "pca_nmi": quality.get("pca_nmi", 0.0),
        "probe_f1": quality.get("probe_f1", 0.0),
    }


def dense_gflop_per_epoch(workload, n_samples, d):
    """Dense-layer GFLOP of one training epoch plus its validation pass on
    d kept loci: 2*in*out per sample forward, twice that again backward
    (weight and input gradients); validation runs encoder, mu head and
    decoder."""
    (h1, h2), q = workload.hidden_dims, workload.latent_dim
    encoder = d * h1 + h1 * h2
    head = h2 * q
    decoder = q * h2 + h2 * h1 + h1 * d
    rows = n_train(n_samples)
    train = 6 * (encoder + 2 * head + decoder) * rows
    val = 2 * (encoder + head + decoder) * (n_samples - rows)
    return (train + val) / 1e9


def per_layer(workload, plain, traced):
    """A wrapped function that no call reached means its span was bypassed,
    unless a failed stage (already counted) explains it."""
    spans = traced["spans"]
    stage_failed = any(s["failed"] for s in traced["stages"].values())
    out = {}
    for module, functions in TARGETS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            row = spans.get(name, {})
            if not row.get("calls") and not stage_failed:
                raise HarnessError(f"span {name} recorded no calls: wrapper bypassed")
            out[f"{name}.calls"] = row.get("calls", 0)
            out[f"{name}.self_s"] = row.get("self_s", 0.0)
            if name in PER_CALL:
                for stat in ("p50_ms", "tail_ms", "tail_pct"):
                    out[f"{name}.{stat}"] = row.get(stat, 0.0)
    out["cohort.cache_bytes"] = traced["cache_bytes"]
    out["checkpoint.bytes"] = traced["checkpoint_bytes"]
    out["optim.param_scalars"] = traced["param_scalars"]
    out["optim.steps"] = spans["optim.rmsprop_update"]["calls"]
    out["layers.dense_gflop"] = dense_gflop_per_epoch(workload, traced["n_samples"], traced["n_loci"])
    for stage in STAGES:
        s = traced["stages"][stage]
        # share of the stage's wall time inside wrapped functions other than cli.run
        out[f"trace.coverage.{stage}"] = 100.0 * (s["run_total_s"] - s["run_self_s"]) / s["seconds"][0]
        out[f"trace.overhead.{stage}_s"] = s["seconds"][0] - plain["stages"][stage]["seconds"][0]
    for group, stages in STAGE_GROUPS.items():
        out[f"stage.{group}_s"] = stage_s(plain, stages, first=True)
    plain_s, traced_s = stage_s(plain, STAGES, first=True), stage_s(traced, STAGES, first=True)
    out["trace.span_cost_s"] = traced["span_cost_s"] * sum(row["calls"] for row in spans.values())
    out["trace.overhead_s"] = traced_s - plain_s
    out["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    return out


def count_failures(passes, determinism_problems):
    """Failed stage calls; a history that fails the determinism check
    fails the train call that wrote it, unless that already failed."""
    failed = sum(s["failed"] for p in passes for s in p["stages"].values())
    failed += sum(p["setup"]["failed"] for p in passes)
    if determinism_problems and not passes[0]["stages"]["train"]["failed"]:
        failed += 1
    return failed


def report(workload, seed, trace, env, passes, problems):
    """Human-readable lines that precede the result JSON."""
    print(json.dumps({"environment": environment(env)}, sort_keys=True))
    print(f"workload {workload.name} seed {seed} trace {trace}")
    for i, p in enumerate(passes):
        row = "  ".join(
            f"{s} {statistics.fmean(p['stages'][s]['seconds']):.3f}s"
            f"/{len(p['stages'][s]['seconds'])}" for s in STAGES
        )
        print(f"pass {i} (mean s/calls): {row}")
        for s in STAGES:
            for problem in p["stages"][s]["problems"]:
                print(f"FAILED pass {i} {s}: {problem}")
    for problem in problems:
        print(f"FAILED determinism: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-history", action="store_true",
                        help="damage history.tsv after training (self-test of the correctness gate)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "somatic_vae", "cli.py")):
        print("error: run from a checkout root holding src/somatic_vae", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    env = child_env()
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = os.path.join(WORK, f"{workload.name}-{seed}-{os.getpid()}")
    try:
        corrupt = ["--corrupt-history"] * args.corrupt_history
        if args.trace:
            # one round each: the untraced pass is the reference for overhead
            plain = run_pass(workload, seed, 0, os.path.join(run_dir, "plain"), env, deadline)
            traced = run_pass(workload, seed, 0, os.path.join(run_dir, "traced"), env, deadline,
                              ["--trace", *corrupt])
            passes = [plain, traced]
            metrics = per_layer(workload, plain, traced)
        else:
            flags = ["--end-to-end", *corrupt]
            passes = [run_pass(workload, seed, args.seconds, os.path.join(run_dir, "pass"),
                               env, deadline, flags)]
            metrics = end_to_end(workload, passes[0])
        problems = check_determinism(passes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it
    attempted = sum(s["calls"] for p in passes for s in p["stages"].values())
    attempted += sum(len(p["setup"]["seconds"]) for p in passes)

    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        raise HarnessError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    failed = count_failures(passes, problems)
    report(workload, seed, args.trace, env, passes, problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
