"""End-to-end and per-layer benchmark of the ``qebsdej run`` command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  A closed loop with one client: each repetition is a fresh
interpreter running the ``qebsdej run`` command line on the workload's
config with ``ensemble.seed`` set to ``--seed`` (see child.py), one at a
time, until the next repetition would end after ``--seconds``, but at
least ``MIN_RUNS`` of them.

``--trace 0`` reports the end-to-end metrics.  When the window holds fewer
than ``SETUP_SAMPLES`` repetitions, set-up-only processes (``qebsdej
validate``) follow, so ``setup_s`` is always a median of that many set-ups.

``--trace 1`` alternates an untraced and a traced repetition and reports
the per-layer metrics of tracer.py plus ``trace.overhead_s``, the traced
minus the untraced ``run_s``.

Every repetition passes the correctness gate or counts as failed: exit code
0, ``OVERALL PASS`` in ``summary.txt``, a SHA-256 of the numeric CSVs equal
to that of the first repetition for the same code, environment and config
(kept in ``.perfbench/registry.json`` across runs, together with the exact
counts of traced runs, which must repeat as well), and, at the seeds of
``reference_y0.json``, a headline value within ``Y0_SHIFT_MAX_SE`` standard
errors of the seed commit's.  Failed repetitions are left out of the
metrics.  Each result is appended to ``.perfbench/results.jsonl`` with its
environment.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, headline

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 6
# A scheme_canonical repetition takes about 20 s and varies by about 8% from
# one process to the next, so a window must not end on one or two of them.
MIN_RUNS = 3
# The benchmark seed fixes the program's randomness, so a correct program
# reproduces the seed commit's headline far inside one standard error.
Y0_SHIFT_MAX_SE = 1.0
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS thread per repetition.  On two vCPUs OpenBLAS's default of two
# spin-waiting threads doubles the CPU time of scheme_canonical for the same
# wall time, so the run would time the host's scheduler, not the program.
BLAS_THREADS = "1"

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "path_steps_per_s": "1/s"}

PER_LAYER = {
    "config.load_config.s": "s",
    "levy.build_quadrature.s": "s",
    "levy.sample_jump_paths.s": "s",
    "levy.jumps.count": "count",
    "solver.simulate_forward.s": "s",
    "solver.solve_lipschitz.s": "s",
    "solver.decompose.s": "s",
    "solver.FeatureMap.matrix.s": "s",
    "solver.FeatureMap.matrix.calls": "count",
    "solver.FeatureMap.matrix.bytes": "B",
    "solver.u_values.s": "s",
    "solver.u_values.calls": "count",
    "solver.picard.iterations": "count",
    "drivers.regularize.s": "s",
    "drivers.evaluate.s": "s",
    "drivers.evaluate.calls": "count",
    "drivers.evaluate.rows": "count",
    "semimartingale.check_q_structure.s": "s",
    "semimartingale.martingale_regression_test.s": "s",
    "semimartingale.submartingale_test.s": "s",
    "semimartingale.stability.s": "s",
    "risk.entropic.s": "s",
    "risk.apriori_bound_check.s": "s",
    "risk.exponential_moment_check.s": "s",
    "scheme.run_triple_scheme.s": "s",
    "scheme.driver_l1_gap.s": "s",
    "scheme.default_c_split.s": "s",
    "scheme.monotonicity_check.s": "s",
    "scheme.triples_failed.count": "count",
    "runner.run_experiment.s": "s",
    "runner.write_csv.s": "s",
    "runner.write_csv.bytes": "B",
    "trace.overhead_s": "s",
}


def environment(env: dict) -> dict:
    """The versions and settings a repetition runs with, ``env`` being the
    environment of its process."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__,
                blas=f"{blas.get('name')} {blas.get('version')}",
                blas_threads={v: env.get(v) for v in THREAD_VARS},
                nproc=os.cpu_count())


def code_fingerprint(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def artifacts_sha256(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def gate_errors(rep: dict, out_dir: Path, expected_sha: str | None) -> list[str]:
    """Reasons a repetition fails the correctness gate (empty if it passes).
    ``rep["y0_shift_se"]`` is None where there is no reference value."""
    if rep.get("exit_code") != 0:
        return [f"exit code {rep.get('exit_code')}"]
    summary = out_dir / "summary.txt"
    lines = summary.read_text().splitlines() if summary.is_file() else []
    errors = [line for line in lines if line.startswith("FAIL")]
    if not any(line.startswith("OVERALL PASS") for line in lines):
        errors.append("summary.txt has no OVERALL PASS")
    if expected_sha is not None and rep["sha256"] != expected_sha:
        errors.append(f"artifacts sha256 {rep['sha256'][:12]} differs from "
                      f"{expected_sha[:12]} of an earlier run")
    shift = rep["y0_shift_se"]
    if shift is not None and not abs(shift) <= Y0_SHIFT_MAX_SE:
        errors.append(f"headline moved {shift:+.3g} standard errors from the "
                      "seed commit's value at this seed")
    return errors


def exact_counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith(".s")}


def count_mismatches(counts: dict, others: list[dict]) -> list[str]:
    """Names of the exact counts that differ in any of ``others``."""
    return sorted({k for other in others for k in counts.keys() | other.keys()
                   if other.get(k) != counts.get(k)})


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = root / ".perfbench"
        self.run_dir = self.work / f"run-{os.getpid()}"
        self.config = self.run_dir / "config.json"
        self.config_text = json.dumps(self.workload.config_for(seed))
        src = root / "src"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
            **{v: BLAS_THREADS for v in THREAD_VARS})
        self.environment = environment(self.env)
        self.key = ":".join([code_fingerprint(src),
                             self.environment["python"],
                             self.environment["numpy"],
                             self.environment["scipy"],
                             self.environment["blas"], BLAS_THREADS, workload,
                             hashlib.sha256(self.config_text.encode()).hexdigest()])
        self.registry_path = self.work / "registry.json"
        self.registry = (json.loads(self.registry_path.read_text())
                         if self.registry_path.is_file() else {})
        self.attempted = 0
        self.failures: list[str] = []
        self.headline = None

    def __enter__(self):
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(self.config_text)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def known(self, field: str):
        return self.registry.get(self.key, {}).get(field)

    def _remember(self, field: str, value) -> None:
        self.registry.setdefault(self.key, {})[field] = value
        tmp = self.registry_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.registry, indent=1, sort_keys=True))
        os.replace(tmp, self.registry_path)

    def child(self, mode: str) -> dict | None:
        """One repetition; None if it failed."""
        self.attempted += 1
        out_dir = self.run_dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(self.config),
               str(out_dir)]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd + [repr(t_spawn)], env=self.env,
                                  cwd=self.root, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._fail(mode, f"timed out after {CHILD_TIMEOUT_S} s")
            return None
        try:
            rep = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            rep = None
        if proc.returncode != 0 or rep is None:
            self._fail(mode, f"child exited {proc.returncode}: "
                             + proc.stderr.strip()[-2000:])
            return None
        if mode == "setup":
            if rep["exit_code"] != 0:
                self._fail(mode, f"exit code {rep['exit_code']}")
                return None
            return rep
        rep["sha256"] = artifacts_sha256(out_dir)
        rep["y0_shift_se"] = None
        if rep["exit_code"] == 0:
            try:
                value, se = headline(self.workload.name, out_dir)
            except (OSError, LookupError, ValueError, StopIteration) as exc:
                self._fail(mode, f"no headline value: {exc!r}")
                return None
            rep.update(headline=value, headline_se=se,
                       y0_shift_se=y0_shift_se(self.workload.name, self.seed, value))
        errors = gate_errors(rep, out_dir, self.known("artifacts_sha256"))
        if errors:
            self._fail(mode, "; ".join(errors))
            return None
        if self.known("artifacts_sha256") is None:
            self._remember("artifacts_sha256", rep["sha256"])
        if self.headline is None:
            self.headline = {k: rep[k] for k in ("headline", "headline_se",
                                                 "y0_shift_se")}
        return rep

    def _fail(self, mode: str, reason: str) -> None:
        self.failures.append(f"{mode}: {reason}")
        print(f"FAILED {mode} repetition: {reason}", flush=True)

    def repetitions(self, modes: tuple[str, ...], seconds: float,
                    min_rounds: int) -> dict:
        """Run ``modes`` in turn until the next round would end after
        ``seconds``; at least ``min_rounds`` rounds."""
        reps = {mode: [] for mode in modes}
        t0 = time.monotonic()
        rounds = 0
        while True:
            for mode in modes:
                rep = self.child(mode)
                if rep is not None:
                    reps[mode].append(rep)
            rounds += 1
            elapsed = time.monotonic() - t0
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                return reps

    def end_to_end(self, seconds: float) -> dict:
        runs = self.repetitions(("run",), seconds, MIN_RUNS)["run"]
        if not runs:
            return {}
        probes = [self.child("setup")
                  for _ in range(SETUP_SAMPLES - len(runs))]
        setups = [p["setup_s"] for p in probes if p] + [r["setup_s"] for r in runs]
        return {
            "run_s": statistics.median(r["run_s"] for r in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "path_steps_per_s": statistics.median(
                self.workload.path_steps / r["run_s"] for r in runs),
        }

    def per_layer(self, seconds: float) -> dict:
        reps = self.repetitions(("run", "trace"), seconds, 1)
        traced, untraced = reps["trace"], reps["run"]
        if not traced or not untraced:
            return {}
        layers = [t["layers"] for t in traced]
        counts = exact_counts(layers[0])
        known = self.known("counts")
        differ = count_mismatches(counts, [exact_counts(layer) for layer in layers[1:]]
                                  + ([known] if known else []))
        if differ:
            self._fail("trace", f"exact counts differ between runs: {differ}")
        elif known is None:
            self._remember("counts", counts)
        out = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                out[name] = (statistics.median(t["run_s"] for t in traced)
                             - statistics.median(u["run_s"] for u in untraced))
            elif name.endswith(".s"):
                out[name] = statistics.median(layer[name] for layer in layers)
            else:
                out[name] = counts[name]
        return out


def y0_shift_se(workload: str, seed: int, value: float):
    """How far the headline moved from the seed commit's value at this seed,
    in units of that value's reported standard error (None if the seed is not
    in the reference table)."""
    table = json.loads((HERE / "reference_y0.json").read_text())
    ref = table["values"].get(workload, {}).get(str(seed))
    if ref is None:
        return None
    return (value - ref[0]) / ref[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qebsdej" / "__init__.py").is_file():
        print(f"no qebsdej sources under {root / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    with Bench(root, args.workload, args.seed) as bench:
        measure = bench.per_layer if args.trace else bench.end_to_end
        metrics = measure(args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        print("no repetition passed:\n" + "\n".join(bench.failures),
              file=sys.stderr)
        return 1

    # a repeat of the exact counts that breaks is one more failure of a traced
    # repetition, which may also have failed its gate
    failed = min(len(bench.failures), bench.attempted)
    record = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, attempted=bench.attempted,
                  failed=failed,
                  checks_failed_frac=failed / max(bench.attempted, 1),
                  failures=bench.failures, metrics=metrics,
                  artifacts_sha256=bench.known("artifacts_sha256"),
                  environment=bench.environment)
    if bench.headline is not None:
        record.update(bench.headline)
    with (bench.work / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")

    for key in ("workload", "seed", "attempted", "failed", "checks_failed_frac",
                "artifacts_sha256", "headline", "headline_se", "y0_shift_se",
                "environment"):
        if key in record:
            print(f"{key}: {json.dumps(record[key])}")
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    print(json.dumps(dict(
        correct=failed == 0, attempted=bench.attempted, failed=failed,
        metrics={name: {"value": value, "unit": units[name]}
                 for name, value in metrics.items()})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
