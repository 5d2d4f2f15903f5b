"""SHA-256 of every output of the benchmark's pipeline, optionally
compared with another tree's.

    python3 tools/byte_manifest.py WORKLOAD SEED [--against TREE] [--src DIR]

Writes WORKLOAD's input TSVs from SEED into a temporary directory with
the benchmark's own generator and layout (perfbench/inputs.py through
perfbench/pipeline.py, neither changed), runs the pipeline's eight
stages once through somatic_vae.cli.run imported from DIR (this tree's
src/ by default), both eval-cluster stages with --out, and prints one
line "SHA-256  name" per output: each stage's stdout, with the
temporary directory's path written as WORKDIR, and every file the
stages write: cache/cohort.bin, cache/labels.tsv, run/history.tsv,
run/checkpoint.bin, run/effective-config.toml, run/embeddings.tsv and
the two assignment files. A stage that fails stops the run (exit 1).

With --against TREE, TREE's src/ makes its manifest the same way, on the
same inputs, in a subprocess; every output whose hash differs, or that
only one side wrote, is listed, and the exit code is 1 if there is any.
"""

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from pipeline import STAGES, Pass, stage_argv  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ASSIGNMENTS = {"cluster_vae": "assignments_vae.tsv", "cluster_pca": "assignments_pca.tsv"}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _import_cli(src):
    sys.path.insert(0, src)
    from somatic_vae import cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"somatic_vae imported from {cli.__file__}, not {src}")
    return cli


def manifest(workload, seed, src):
    """{output name: SHA-256} of one run of the pipeline on src's somatic_vae."""
    cli = _import_cli(src)
    w = WORKLOADS[workload]
    shas = {}
    with tempfile.TemporaryDirectory() as workdir:
        paths = Pass(w, seed, workdir).paths  # writes the inputs
        argv = stage_argv(w, paths)
        for stage in STAGES:
            if stage in ASSIGNMENTS:
                argv[stage] += ["--out", os.path.join(paths["run"], ASSIGNMENTS[stage])]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv[stage])
            if code != 0:
                sys.exit(f"{stage} exited {code}: {err.getvalue().strip()}")
            shas[f"stdout/{stage}"] = _sha256(out.getvalue().replace(workdir, "WORKDIR").encode())
        for folder in ("cache", "run"):
            for name in sorted(os.listdir(paths[folder])):
                with open(os.path.join(paths[folder], name), "rb") as fh:
                    shas[f"{folder}/{name}"] = _sha256(fh.read())
    return shas


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--against", metavar="TREE", help="compare with this checkout's src/")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src/ directory to import somatic_vae from")
    args = parser.parse_args(argv)
    ours = manifest(args.workload, args.seed, os.path.abspath(args.src))
    if args.against is None:
        print("".join(f"{sha}  {name}\n" for name, sha in ours.items()), end="")
        return 0
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), args.workload, str(args.seed),
         "--src", os.path.abspath(os.path.join(args.against, "src"))],
        capture_output=True, text=True, check=False,
    )
    if child.returncode != 0:
        sys.exit(f"{args.against}: {child.stderr.strip()}")
    theirs = {name: sha for sha, name in (line.split("  ", 1) for line in child.stdout.splitlines())}
    mismatches = [name for name in sorted(ours.keys() | theirs.keys())
                  if ours.get(name) != theirs.get(name)]
    for name in mismatches:
        print(f"mismatch {name}: {ours.get(name, 'absent')} here, "
              f"{theirs.get(name, 'absent')} in {args.against}")
    print(f"{len(mismatches)} of {len(ours.keys() | theirs.keys())} outputs differ "
          f"({args.workload}, seed {args.seed})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
