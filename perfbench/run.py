#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The script configures and builds the
perfbench package (the library from src/ plus the xbench driver) in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
xbench, scores the paper claims in claims.json, checks that every metric
BENCHMARK.json names is present with its unit, and prints one JSON
object as the last line of standard output.  Build logs and diagnostics
go to standard error.  Any failed build or check exits non-zero without
printing a result.

--smoke (the package's own tests) runs every workload on tiny inputs.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must finish within 180 s; the build before the first run has
# its own, longer allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configure (once) and build xbench; returns its path or None."""
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "xbench",
                  "-j", jobs])
    # One build at a time per build directory.
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                log("build timed out")
                return None
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return None
    binary = out / "xbench"
    return binary if binary.exists() else None


def band_gap(value, lo, hi):
    return max(0.0, lo - value, value - hi)


def table2_claim(claims):
    """The paper's Table 2: {app: [FPGA_THR, ARM_THR]}."""
    for claim in claims["quantitative"]:
        if "table2" in claim:
            return claim["table2"]
    raise KeyError("claims.json declares no table2 claim")


def add_table2(metrics, claims):
    """Score xbench's step-G thresholds against the paper's Table 2.

    Adds table2.thr_abs_err (mean absolute error over the ten
    thresholds) and claim.table2_fpga_favoured_zero (1 when every
    benchmark with a paper FPGA_THR of 0 also estimates 0).
    """
    errors = []
    favoured_zero = True
    for app, (fpga, arm) in table2_claim(claims).items():
        sim_fpga = metrics[f"table2.{app}.fpga_thr"]["value"]
        sim_arm = metrics[f"table2.{app}.arm_thr"]["value"]
        errors += [abs(sim_fpga - fpga), abs(sim_arm - arm)]
        if fpga == 0:
            favoured_zero = favoured_zero and sim_fpga == 0
    metrics["table2.thr_abs_err"] = {"value": sum(errors) / len(errors),
                                     "unit": "procs"}
    metrics["claim.table2_fpga_favoured_zero"] = {
        "value": 1 if favoured_zero else 0, "unit": "ratio"}


def score_claims(metrics, claims):
    """fidelity_gap_pp and paper_claims_met from xbench's raw values."""
    tol = claims["point_tolerance"]

    def band(claim):
        if "band" in claim:
            return claim["band"]
        p = claim["point"]
        return [p * (1 - tol), p * (1 + tol)]

    gaps = []
    for claim in claims["quantitative"]:
        if "table2" in claim:
            per = []
            for app, paper in claim["table2"].items():
                sim = [metrics[f"table2.{app}.fpga_thr"]["value"],
                       metrics[f"table2.{app}.arm_thr"]["value"]]
                for s, p in zip(sim, paper):
                    per.append(band_gap(s, p * (1 - tol), p * (1 + tol)))
            gap = sum(per) / len(per)
        else:
            lo, hi = band(claim)
            gap = band_gap(metrics[claim["metric"]]["value"], lo, hi)
        gaps.append(gap * claim["pp_per_unit"])
    # Each claim.* value is the fraction of the run's sweeps in which the
    # claim holds, so the sum is the mean number of claims met per sweep.
    met = sum(metrics[c["metric"]]["value"] for c in claims["qualitative"])
    return sum(gaps) / len(gaps), met


def select(metrics, declared):
    """The declared metrics, in declaration order, with their units."""
    out = {}
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        if name not in metrics:
            raise ValueError(f"metric {name} was not reported")
        got = metrics[name]
        # Unit "-" marks a layer this workload does not reach (value 0).
        if got["unit"] == "-" and got["value"] == 0:
            out[name] = {"value": 0, "unit": unit}
            continue
        if got["unit"] != unit:
            raise ValueError(f"metric {name} reported in {got['unit']}, "
                             f"declared in {unit}")
        out[name] = {"value": got["value"], "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log("BENCHMARK.json not found next to perfbench/")
        return 1
    spec = json.loads(spec_path.read_text())
    claims = json.loads((BENCH_DIR / "claims.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    binary = build(build_dir())
    if binary is None:
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace] + (["--smoke"] if args.smoke else [])
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"xbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        log(f"xbench failed (exit {done.returncode})")
        return 1
    result = json.loads(lines[-1])
    if not result.get("correct"):
        log("xbench output checks failed")
        return 1

    metrics = result["metrics"]
    try:
        add_table2(metrics, claims)
        if args.trace == "0":
            gap, met = score_claims(metrics, claims)
            metrics["fidelity_gap_pp"] = {"value": gap, "unit": "pp"}
            metrics["paper_claims_met"] = {"value": met, "unit": "count"}
            chosen = select(metrics, spec["end_to_end"])
        else:
            chosen = select(metrics, spec["per_layer"])
    except (KeyError, ValueError) as err:
        log(f"metric check failed: {err}")
        return 1

    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
