"""spurious-lens CLI benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's command script through `spurious_lens.cli.main` in this
process, as a closed loop with one client: a command starts when the
previous one has finished. `--trace 0` reports the end-to-end metrics;
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics. Outputs are checked after the timed region. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Instance generation is repeated this many times per run; setup_s takes the median.
SETUP_REPEATS = 3

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_library():
    """Import spurious_lens from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import spurious_lens
        import spurious_lens.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import spurious_lens from {SRC}: {exc}")
    if Path(spurious_lens.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: spurious_lens was imported from {spurious_lens.__file__}")
    return spurious_lens


def blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, or the capped env value."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (env)"


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int, seed: int, instance_bytes: int) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps['blas'].get('name')} {deps['blas'].get('version')}",
        "lapack": f"{deps['lapack'].get('name')} {deps['lapack'].get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "cpu": cpu,
        "git_commit": git_commit(),
        "seed": seed,
        "instance_bytes": instance_bytes,
    }


class Runner:
    """Runs passes of one workload's command script and keeps their outcomes."""

    def __init__(self, cli, workload, instance_path: Path, out_dir: Path, seed: int):
        self.cli = cli
        self.workload = workload
        self.argvs = []
        self.outputs = []
        for i, cmd in enumerate(workload.commands):
            out = out_dir / f"out-{i}.json"
            fill = {"instance": str(instance_path), "output": str(out), "seed": str(seed)}
            self.argvs.append([a.format(**fill) for a in cmd.argv])
            self.outputs.append(out)
        self.runs = []  # (command index, exit code or error text, output digest)
        self.documents = {}  # (command index, digest) -> output text

    def run_pass(self, calibrate=None) -> tuple[list[float], list[float]]:
        """One pass of the script. Returns each command's wall time in seconds
        and, when `calibrate` is given, its time after each command."""
        clock = time.perf_counter
        times, codes, cals = [], [], []
        for argv in self.argvs:
            t = clock()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed command, not a crash of the run
                code = f"raised {type(exc).__name__}: {exc}"
            times.append(clock() - t)
            codes.append(code)
            if calibrate is not None:
                cals.append(calibrate())
        for i, code in enumerate(codes):
            digest = None
            if code == 0 and self.outputs[i].exists():
                text = self.outputs[i].read_bytes()
                digest = hashlib.sha256(text).hexdigest()
                self.documents.setdefault((i, digest), text)
            self.runs.append((i, code, digest))
        return times, cals

    def check(self, instance: dict) -> tuple[int, int, list[str]]:
        """Checks every distinct output once; returns (attempted, failed, problems)."""
        from checks import Checker

        checker = Checker(instance)
        verdicts = {}
        for (i, digest), text in self.documents.items():
            try:
                doc = json.loads(text)
            except ValueError:
                doc = None
            verdicts[(i, digest)] = checker(self.workload.commands[i].check, 0, doc)
        failed, problems = 0, []
        for i, code, digest in self.runs:
            found = verdicts[(i, digest)] if code == 0 and digest else checker(
                self.workload.commands[i].check, code, None
            )
            if found:
                failed += 1
                problems.extend(p for p in found if p not in problems)
        return len(self.runs), failed, problems


@dataclass
class Pass:
    command_s: list[float]
    # REFERENCE_S over the mean calibration time before and after each
    # command: multiplying a wall time by it gives reference seconds.
    scale: list[float]
    traced: bool

    @property
    def wall_s(self) -> float:
        return sum(self.command_s)

    @property
    def norm_s(self) -> float:
        return sum(c * k for c, k in zip(self.command_s, self.scale))


def setup(workload, seed: int, work: Path) -> tuple[Path, str, list[float]]:
    """Generates and writes the instance SETUP_REPEATS times; returns its path,
    its text and the time of each repeat. Every repeat must give the same bytes."""
    path = work / "instance.json"
    times, text = [], None
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        fresh = workload.instance_text(seed)
        path.write_text(fresh, encoding="ascii")
        times.append(time.perf_counter() - t)
        if text is not None and fresh != text:
            raise SystemExit("perfbench: instance generation is not deterministic")
        text = fresh
    return path, text, times


def layer_metrics(spans: dict, workload, overhead_pct: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, as medians over traced passes."""
    import numpy as np

    from spans import LINALG_GROUPS, children_per_pass, per_pass_totals
    from stats import median

    totals = per_pass_totals(spans)
    n_passes = len(np.unique(spans["pass_id"]))
    zero = np.zeros(n_passes)

    def stat(name: str, field: str) -> float:
        return median(totals.get(name, {}).get(field, zero))

    def total(prefix: str, field: str) -> float:
        parts = [t[field] for n, t in totals.items() if n.startswith(prefix)]
        return median(np.sum(parts, axis=0)) if parts else 0.0

    m = {}
    for name in (
        "cli.main",
        "serialize.parse_instance",
        "serialize.dumps_canonical",
        "minnorm.DesignMatrix",
        "minnorm.Projection",
        "estimators.LabeledData",
        "estimators.fit_full",
        "analysis.TestDistribution",
        "analysis.removal_verdict",
    ):
        m[f"{name}.self_ms"] = (stat(name, "self_ms"), "ms")
    for name in (
        "minnorm.DesignMatrix",
        "minnorm.Projection",
        "minnorm.projection",
        "minnorm.row_space_projection",
        "minnorm.min_norm_solve",
        "estimators.LabeledData",
        "estimators.fit_core",
        "estimators.fit_full",
        "estimators.fit_multi",
        "estimators.fit_rst",
        "analysis.TestDistribution",
        "analysis.removal_verdict",
        "analysis.robust_error",
        "constructions.construct_disjoint",
        "constructions.construct_balanced",
        "ovb.estimate_group_losses",
        "scenarios.example1_simulate",
        "scenarios.example2_simulate",
        "scenarios.ovb_simple_scenario",
        "scenarios.reference_tables",
    ):
        m[f"{name}.calls"] = (stat(name, "calls"), "count")
    m["serialize.bytes_in"] = (stat("serialize.parse_instance", "value"), "bytes")
    m["serialize.bytes_out"] = (stat("serialize.dumps_canonical", "value"), "bytes")

    fits = {f"estimators.fit_{k}" for k in ("core", "full", "multi", "rst")}
    scen = {"scenarios.example1_simulate", "scenarios.example2_simulate"}
    per_trial = children_per_pass(spans, fits, scen) / workload.fit_trials if workload.fit_trials else zero
    m["estimators.fits_per_trial"] = (median(per_trial), "fits/trial")

    constructs = {"constructions.construct_disjoint", "constructions.construct_balanced"}
    verdicts = children_per_pass(spans, {"analysis.removal_verdict"}, constructs)
    bundles = sum(totals[n]["calls"] for n in constructs if n in totals) + zero
    pairs = np.divide(verdicts / 2.0, bundles, out=np.zeros(n_passes), where=bundles > 0)
    m["constructions.verify_attempts"] = (median(pairs), "pairs/bundle")

    for group in LINALG_GROUPS:
        m[f"linalg.{group}.calls"] = (stat(f"linalg.{group}", "calls"), "count")
    m["linalg.self_ms"] = (total("linalg.", "self_ms"), "ms")
    m["linalg.gflop_computed"] = (total("linalg.", "value") / 1e9, "GFLOP")
    m["trace_overhead_pct"] = (overhead_pct, "%")
    return m


def layer_report(spans: dict, workload) -> list[str]:
    """Per-span-name lines for the spans that ran: self ms per pass, inclusive
    ms per call, calls per pass; then the workload's ROADMAP baseline beside
    the traced numbers."""
    from spans import per_pass_totals
    from stats import median

    per_call = {}
    lines = [f"{'span':<36} {'self_ms/pass':>13} {'incl_ms/call':>13} {'calls/pass':>11}"]
    for name, t in sorted(per_pass_totals(spans).items()):
        calls = median(t["calls"])
        if not calls:
            continue
        per_call[name] = median(t["incl_ms"]) / calls
        lines.append(f"{name:<36} {median(t['self_ms']):>13.3f} {per_call[name]:>13.3f} {calls:>11.0f}")
    if workload.roadmap_ms:
        lines.append(f"{'ROADMAP item 1 (ms per call)':<36} {'roadmap':>13} {'traced':>13}")
        for name, ms in workload.roadmap_ms:
            lines.append(f"{name:<36} {ms:>13.0f} {per_call.get(name, 0.0):>13.1f}")
    return lines


def measure(runner, seconds: float, tracer) -> list[Pass]:
    """Runs passes for about `seconds` seconds, calibrating after each command.

    A pass starts only while at least half a typical pass fits before the
    deadline. With a tracer, passes alternate untraced and traced, starting
    untraced.
    """
    from calibration import REFERENCE_S, calibrate

    from stats import median

    passes, durations = [], []
    before = calibrate()
    deadline = time.perf_counter() + seconds
    while len(passes) < (2 if tracer else 1) or (
        deadline - time.perf_counter() > 0.5 * median(durations)
    ):
        traced = tracer is not None and len(passes) % 2 == 1
        t = time.perf_counter()
        if traced:
            tracer.pass_no, tracer.active = len(passes) // 2, True
        command_s, cals = runner.run_pass(calibrate)
        if traced:
            tracer.active = False
        durations.append(time.perf_counter() - t)
        edges = [before, *cals]
        scale = [2.0 * REFERENCE_S / (a + b) for a, b in zip(edges, edges[1:])]
        passes.append(Pass(command_s, scale, traced))
        before = cals[-1]
    return passes


def main(argv=None) -> int:
    nproc = cap_blas_threads()
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    from workloads import WORKLOADS

    spurious_lens = import_library()
    import_s = time.perf_counter() - T_START
    from calibration import REFERENCE_S, calibrate
    from stats import describe, median

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        calibrate()  # first-call costs of the loop itself
        cal_before = calibrate()
        instance_path, instance_text, gen_times = setup(workload, args.seed, work)
        runner = Runner(spurious_lens.cli, workload, instance_path, work, args.seed)
        warm_s = sum(runner.run_pass()[0])
        setup_wall_s = import_s + median(gen_times) + warm_s
        setup_s = setup_wall_s * 2.0 * REFERENCE_S / (cal_before + calibrate())

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install(spurious_lens)
        try:
            passes = measure(runner, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        plain = [p for p in passes if not p.traced]

        attempted, failed, problems = runner.check(json.loads(instance_text))
        env = environment(nproc, args.seed, len(instance_text))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pass_s = [p.norm_s for p in plain]

        print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print(f"why: {workload.why}")
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        print(
            f"setup_s {setup_s:.4f} s; wall {setup_wall_s:.4f} s = import {import_s:.4f} s "
            f"+ generate {median(gen_times):.4f} s (median of {SETUP_REPEATS}) + warm-up pass {warm_s:.4f} s"
        )
        print(f"pass_s {describe(pass_s, 's')}")
        print(f"pass_wall_s {describe([p.wall_s for p in plain], 's')}")
        print(f"speed vs reference: {describe([p.norm_s / p.wall_s for p in plain], 'x', 3)}")
        commands_ms = {}
        for i, cmd in enumerate(workload.commands):
            commands_ms[cmd.metric] = [p.command_s[i] * p.scale[i] * 1e3 for p in plain]
            print(f"{cmd.metric} {describe(commands_ms[cmd.metric], 'ms', 3)}")
        print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} commands)")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
        for problem in problems:
            print(f"check failed: {problem}")

        result = {
            "workload": workload.name,
            "env": env,
            "setup_s": setup_s,
            "setup_wall_s": setup_wall_s,
            "passes": [vars(p) for p in passes],
            "commands_ms": commands_ms,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "peak_rss_mb": peak_rss_mb,
        }
        if tracer is not None:
            spans = tracer.arrays()
            tracer.write(WORK / f"spans-{workload.name}.npz")
            traced = [p.norm_s for p in passes if p.traced]
            metrics = layer_metrics(spans, workload, 100.0 * (median(traced) / median(pass_s) - 1.0))
            print(f"traced passes: {len(traced)}, untraced passes: {len(plain)}")
            for line in layer_report(spans, workload):
                print(line)
        else:
            metrics = {
                "pass_s": (median(pass_s), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        (WORK / f"result-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(result, indent=1)
        )
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": result["metrics"],
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
