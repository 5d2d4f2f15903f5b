"""One pass of the quickstart pipeline, run in a child process.

    python3 perfbench/pipeline.py WORKLOAD SEED SECONDS WORKDIR RESULT_JSON
        [--trace | --end-to-end] [--corrupt-history]

Generates the workload's input TSVs from SEED into WORKDIR, then runs
every stage in-process through ``somatic_vae.cli.run`` exactly as a user
would from the shell, timing each call from outside and checking its
outputs. Rounds of all stages repeat until SECONDS have passed.
``--end-to-end`` makes sure ``train`` runs at least twice, so the pass
itself checks that ``history.tsv`` comes out bit-identical, and times
one fresh set-up process after each of the first SETUP_PROBES stage
calls. ``--trace`` first wraps the program's public
functions (see ``spans.py``) and adds per-function numbers to the
result. ``--corrupt-history`` damages ``history.tsv`` after the first
training call; it exists so the smoke test can prove the correctness
gate fires.

The result JSON holds per-stage call times, failures and problems, the
set-up times, the quality numbers read back from the outputs, the
SHA-256 of ``history.tsv`` and this process's peak resident memory.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback

import inputs
import spans
from workloads import TRAIN_FRACTION, WORKLOADS

# the checkout this file sits in; its src/ is the program under test
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

STAGES = (
    "preprocess", "train", "embed", "eval_recon",
    "cluster_vae", "cluster_pca", "probe_vae", "probe_raw",
)
PCA_DIMS = 16
SETUP_PROBES = 9  # set-up processes per end-to-end pass; setup_s is their median
# what every train/embed/eval invocation pays before it computes
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import somatic_vae.cli; "
    "somatic_vae.cohort.load_cohort(sys.argv[2])"
)


def stage_argv(w, p):
    """CLI arguments of every stage, given the workload and the paths."""
    return {
        "preprocess": ["preprocess", "--profiles", p["profiles"], "--labels", p["labels"],
                       "--min-count", str(w.min_count), "--out", p["cache"]],
        "train": ["train", "--cohort", p["cache"], "--out", p["run"], *w.train_flags()],
        "embed": ["embed", "--checkpoint", p["checkpoint"], "--cohort", p["cache"],
                  "--out", p["embeddings"]],
        "eval_recon": ["eval-recon", "--checkpoint", p["checkpoint"], "--cohort", p["cache"]],
        "cluster_vae": ["eval-cluster", "--embeddings", p["embeddings"], "--labels", p["labels"]],
        "cluster_pca": ["eval-cluster", "--cohort", p["cache"], "--pca", str(PCA_DIMS),
                        "--labels", p["labels"]],
        "probe_vae": ["probe", "--embeddings", p["embeddings"], "--labels", p["binary"]],
        "probe_raw": ["probe", "--cohort", p["cache"], "--labels", p["binary"]],
    }


def n_train(n):
    """Training rows of the CLI's holdout split: round(fraction * n),
    clamped so both sides keep a row."""
    return min(max(int(math.floor(TRAIN_FRACTION * n + 0.5)), 1), n - 1)


def _fields(stdout):
    """Tab-separated `key<TAB>value...` stdout lines as a dict of lists."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split("\t")
        if len(parts) >= 2:
            out[parts[0]] = parts[1:]
    return out


def _unit_float(fields, key, problems):
    """fields[key] as a finite float in [0, 1], else a recorded problem."""
    try:
        value = float(fields[key][0])
    except (KeyError, ValueError):
        problems.append(f"no {key} in output")
        return None
    if not 0.0 <= value <= 1.0:
        problems.append(f"{key} {value!r} outside [0, 1]")
    return value


def check_history(text, epochs):
    """Problems with a history.tsv: one finite row per configured epoch."""
    lines = text.splitlines()
    if not lines:
        return ["history.tsv is empty"]
    header = lines[0].split("\t")
    problems = []
    if header[0] != "epoch" or "val_micro_f1" not in header:
        problems.append(f"unexpected history header {lines[0]!r}")
    rows = lines[1:]
    if len(rows) != epochs:
        problems.append(f"history has {len(rows)} rows, expected {epochs}")
    for i, line in enumerate(rows):
        cells = line.split("\t")
        if len(cells) != len(header) or cells[0] != str(i):
            problems.append(f"history row {i} malformed: {line!r}")
            continue
        try:
            values = [float(c) for c in cells[1:]]
        except ValueError:
            problems.append(f"history row {i} has a non-number: {line!r}")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"history row {i} has a non-finite value: {line!r}")
    return problems


def check_embeddings(path, n_samples, latent_dim):
    problems = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != ["sample_id"] + [f"z{j}" for j in range(latent_dim)]:
            problems.append(f"embedding header has {len(header) - 1} latent columns")
        rows = 0
        for line in fh:
            rows += 1
            if not all(math.isfinite(float(v)) for v in line.rstrip("\n").split("\t")[1:]):
                problems.append(f"embedding row {rows} has a non-finite value")
                break
    if rows != n_samples:
        problems.append(f"{rows} embedding rows, expected {n_samples}")
    return problems


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Pass:
    """One child's run of the pipeline: paths, expectations, outputs."""

    def __init__(self, workload, seed, workdir):
        self.w = workload
        self.expected = inputs.write_inputs(workload, seed, os.path.join(workdir, "inputs"))
        self.paths = {
            "profiles": os.path.join(workdir, "inputs", "profiles.tsv"),
            "labels": os.path.join(workdir, "inputs", "labels.tsv"),
            "binary": os.path.join(workdir, "inputs", "binary.tsv"),
            "cache": os.path.join(workdir, "cache"),
            "run": os.path.join(workdir, "run"),
            "checkpoint": os.path.join(workdir, "run", "checkpoint.bin"),
            "embeddings": os.path.join(workdir, "run", "embeddings.tsv"),
            "history": os.path.join(workdir, "run", "history.tsv"),
        }
        self.quality = {}
        self.history_sha = None

    def read_history(self):
        with open(self.paths["history"], "rb") as fh:
            return fh.read()

    def check_repeat(self, name, stdout, first_stdout):
        """Problems with a repeated call: it must print what the first call
        printed, and a repeated `train` must write the same history.tsv."""
        problems = []
        if stdout != first_stdout:
            problems.append(f"output differs from the first call: {stdout.strip()!r}")
        if name == "train":
            digest = hashlib.sha256(self.read_history()).hexdigest()
            if digest != self.history_sha:
                problems.append(
                    f"history.tsv sha256 {digest[:16]} differs from the first call's "
                    f"{str(self.history_sha)[:16]}"
                )
        return problems

    def check(self, name, stdout, corrupt_history=False):
        """Problems with a stage's outputs; records the quality numbers."""
        w, expected, paths = self.w, self.expected, self.paths
        problems = []
        fields = _fields(stdout)
        if name == "preprocess":
            want = f"kept {expected.n_loci_kept} of {expected.n_loci_seen} loci"
            if not stdout.startswith(want):
                problems.append(f"expected {want!r}, got {stdout.strip()!r}")
        elif name == "train":
            if corrupt_history:
                with open(paths["history"], "a", encoding="utf-8") as fh:
                    fh.write("999\tnan\n")
            raw = self.read_history()
            self.history_sha = hashlib.sha256(raw).hexdigest()
            text = raw.decode("utf-8")
            problems += check_history(text, w.epochs)
            lines = text.splitlines()
            cells = dict(zip(lines[0].split("\t"), lines[-1].split("\t")))
            self.quality["val_micro_f1"] = float(cells.get("val_micro_f1", "nan"))
            if not os.path.exists(paths["checkpoint"]):
                problems.append("no checkpoint written")
        elif name == "embed":
            problems += check_embeddings(paths["embeddings"], expected.n_samples, w.latent_dim)
        elif name == "eval_recon":
            _unit_float(fields, "micro_f1", problems)
            _unit_float(fields, "mean_cosine", problems)
        elif name.startswith("cluster"):
            if fields.get("k") != [str(w.n_clusters)]:
                problems.append(f"k {fields.get('k')}, expected {w.n_clusters}")
            score = _unit_float(fields, "nmi", problems)
            self.quality["vae_nmi" if name == "cluster_vae" else "pca_nmi"] = score
            gate = w.pca_nmi_gate
            if name == "cluster_pca" and None not in (gate, score) and abs(score - gate) > 1e-12:
                problems.append(f"PCA NMI {score!r}, the planted optimum is {gate}")
        else:  # probes
            f1 = _unit_float(fields, "f1", problems)
            if name == "probe_vae":
                self.quality["probe_f1"] = f1
            support = fields.get("support", [])
            rows = sum(int(s.split("=")[1]) for s in support if "=" in s)
            n_val = expected.n_samples - n_train(expected.n_samples)
            if rows != n_val:
                problems.append(f"probe support {support}, expected {n_val} rows")
        return problems


def _import_program(trace):
    """The checkout's somatic_vae.cli, with spans installed when tracing."""
    sys.path.insert(0, SRC)
    import somatic_vae

    if not os.path.realpath(somatic_vae.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"somatic_vae imported from {somatic_vae.__file__}, not {SRC}")
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    from somatic_vae import cli

    return cli, tracer


def _call(cli, argv):
    """(exit code or None on a crash, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception:  # a crash is a failed stage; later stages still run
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def time_setup(cache_dir):
    """(wall seconds, ok) of one fresh process that imports the package and
    loads the cohort cache once."""
    start = time.perf_counter()
    # a blocking wait: waiting with a timeout polls in 50 ms steps, which
    # would quantise the time. run.py kills the process group past its limit.
    code = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, SRC, cache_dir],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).wait()
    return time.perf_counter() - start, code == 0


def run_pass(workload_name, seed, workdir, seconds, trace=False, end_to_end=False,
             corrupt_history=False):
    """Rounds of every stage in order, on the same files, until `seconds`
    have passed since the first began. A repeated call must print what
    the first call printed and, for `train`, write the same history.tsv.
    With `end_to_end`, `train` runs once more if only one round ran,
    and a set-up probe follows each of the first SETUP_PROBES stage
    calls, spreading the probes over the pass (a round has eight calls,
    so there are always at least nine)."""
    w = WORKLOADS[workload_name]
    run = Pass(w, seed, workdir)
    cli, tracer = _import_program(trace)
    argv = stage_argv(w, run.paths)
    stages = {name: {"seconds": [], "calls": 0, "failed": 0, "problems": []} for name in STAGES}
    setup = {"seconds": [], "failed": 0}
    first_stdout = {}

    def probe():
        os.sync()  # the stage just run may have left writes pending
        probe_s, ok = time_setup(run.paths["cache"])
        setup["seconds"].append(probe_s)
        setup["failed"] += not ok

    def call(name):
        os.sync()  # write back earlier stages' files outside the timed call
        start = time.perf_counter()
        code, stdout, stderr = _call(cli, argv[name])
        elapsed = time.perf_counter() - start
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-500:]}"]
        elif name not in first_stdout:
            first_stdout[name] = stdout
            try:
                problems = run.check(name, stdout, corrupt_history)
            except (OSError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        else:
            try:
                problems = run.check_repeat(name, stdout, first_stdout[name])
            except OSError as exc:
                problems = [f"unreadable output: {exc!r}"]
        stage = stages[name]
        stage["seconds"].append(elapsed)
        stage["calls"] += 1
        stage["failed"] += bool(problems)
        stage["problems"] += problems
        if tracer is not None and len(stage["seconds"]) == 1:
            stage["run_total_s"] = tracer.total_s["cli.run"][-1]
            stage["run_self_s"] = tracer.self_s["cli.run"][-1]
        if end_to_end and len(setup["seconds"]) < SETUP_PROBES:
            probe()

    began = time.perf_counter()
    while True:
        for name in STAGES:
            call(name)
        if time.perf_counter() - began >= seconds:
            break
    if end_to_end and stages["train"]["calls"] < 2:
        call("train")

    paths = run.paths
    result = {
        "workload": w.name,
        "seed": seed,
        "stages": stages,
        "setup": setup,
        "quality": run.quality,
        "history_sha256": run.history_sha,
        "n_samples": run.expected.n_samples,
        "n_loci": run.expected.n_loci_kept,
        "cache_bytes": _dir_bytes(paths["cache"]) if os.path.isdir(paths["cache"]) else 0,
        "checkpoint_bytes": (
            os.path.getsize(paths["checkpoint"]) if os.path.exists(paths["checkpoint"]) else 0
        ),
        # Linux reports kilobytes
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from somatic_vae import checkpoint, vae

        result["spans"] = tracer.summary()
        result["span_cost_s"] = spans.span_cost_s()
        result["param_scalars"] = 0
        if os.path.exists(paths["checkpoint"]):  # read after the spans were summed
            model = checkpoint.load_checkpoint(paths["checkpoint"])[0]
            result["param_scalars"] = vae.count_parameters(model)
    return result


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("workdir")
    parser.add_argument("result_path")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--end-to-end", action="store_true")
    parser.add_argument("--corrupt-history", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.workdir, args.seconds, args.trace,
                      args.end_to_end, args.corrupt_history)
    with open(args.result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
