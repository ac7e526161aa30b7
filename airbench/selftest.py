"""Self-test of the benchmark: every workload at a tiny size.

    python3 airbench/selftest.py

Checks, for each workload, traced and untraced, that the last output line
is the JSON object the benchmark promises, that every metric declared in
BENCHMARK.json appears there with its unit, that every end-to-end and
quality metric is printed by name and unit, that the correctness gates ran,
and that the exit code follows them.  Tiny training is too short to pass the
heatmap gate, so it also shows that a failed gate gives a nonzero exit.
Last, it checks that the benchmark fails, without a result, in a directory
that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

EXPECTED_GATES = {
    "train-t3000": {"loss_gap": True, "heatmap_median_nmse": False},
    "cfo-acquire": {"frac_within_10hz": True},
    "ota-k16": {"max_nmse_d": True},
}
EXPECTED_QUALITY = {
    "train-t3000": {"fail_frac", "nmse_mean", "nmse_ge_0p05_frac", "loss_gap"},
    "cfo-acquire": {"fail_frac", "cfo_resid_hz_rms"},
    "ota-k16": {"fail_frac", "nmse_mean"},
}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "airbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_workload(declared: dict, workload: str, trace: int) -> None:
    proc = bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == want, (workload, trace, got, want)
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())

    summary = json.loads((run.OUT_DIR / f"{workload}{'-trace' if trace else ''}" / "summary.json")
                         .read_text(encoding="utf-8"))
    assert set(summary["quality"]) == EXPECTED_QUALITY[workload], summary["quality"].keys()
    printed = {**got, **{name: m["unit"] for name, m in summary["quality"].items()}}
    for name, unit in printed.items():
        assert any(line.split()[1:2] == [name] and line.split()[-1] == unit for line in lines[:-1]), name
    gates = {c["name"]: c["ok"] for c in summary["checks"] if "value" in c}
    assert gates == EXPECTED_GATES[workload], (workload, gates)
    assert last["correct"] == summary["correct"] == all(c["ok"] for c in summary["checks"])
    assert (proc.returncode == 0) == last["correct"], (proc.returncode, last["correct"])
    assert proc.returncode in (0, 1), proc.stderr
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, gates {gates}, exit {proc.returncode}")


def check_bare_directory() -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "airbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "airbench")
    proc = bench(bare, "--workload", "ota-k16", "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_workload(declared, workload, trace)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
