"""tools/byte_manifest.py on the benchmark's smoke workload."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "byte_manifest.py"


def manifest_against(tree):
    return subprocess.run([sys.executable, str(TOOL), "smoke", "3", "--against", str(tree)],
                          capture_output=True, text=True, timeout=600, check=False)


def test_two_runs_of_one_tree_match():
    done = manifest_against(ROOT)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 of 16 outputs differ (smoke, seed 3)\n"


def test_an_output_altered_between_the_trees_is_named(tmp_path):
    # strings in the effective config single-quoted: only that file changes
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "somatic_vae" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    quoted = """fh.write(f'{key} = "{value}"\\n')"""
    assert text.count(quoted) == 1
    cli.write_text(text.replace(quoted, """fh.write(f"{key} = '{value}'\\n")"""), encoding="utf-8")
    done = manifest_against(tmp_path)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["mismatch run/effective-config.toml"]
    assert lines[-1] == "1 of 16 outputs differ (smoke, seed 3)"
