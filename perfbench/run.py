"""corrsense benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``--workload all``) through ``corrsense.cli.main``
in child processes (``shim.py``), checks every output, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(setup_s, wall_s, peak_rss_mb); with ``--trace 1`` they are the per-layer
ones, taken from spans recorded around the calls into each module.

A run repeats the workload's fixed pass until ``--seconds`` is used up
(at least once) and reports medians over passes.  Every child pins BLAS
to one thread.  See BASELINE.md next to this file for the workloads, the
checks, and the baseline numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHIM = HERE / "shim.py"
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("phase_grids", "stable_noisy", "stable_pool", "cone_mc")
SIZES = ("full", "smoke")
POOL_THREADS = 2
JOB_TIMEOUT_S = 150.0

PHASE_HEADER = "experiment,p,n,m,k,s_sig,s_cor,reps,successes,success_rate,mean_rel_error,status"
THEORY_HEADER = "experiment,abscissa_name,abscissa,ordinate_name,ordinate"
STABLE_HEADER = "p,n,rep,error,rescaled_error"

# Tolerances against the committed reference.  Per-cell success counts must
# match exactly.  Stable errors may move by 1% relative: that is far above
# the solver's 1e-5 stopping tolerance, so a reordered but equivalent
# iteration passes, and far below the factor-of-2 collapse band of the
# stable study.  MC estimates are pure functions of the seed up to the
# golden-section tolerance, so they must match to 1e-6 relative.
STABLE_RTOL = 1e-2
MC_RTOL = 1e-6
# an MC estimate must not exceed its closed-form upper bound by more than
# this many standard errors
MC_BOUND_SE = 4.0

# per-process counters every shim record carries
COUNTERS = ("solves", "iters", "capped", "failed_iters")
# layout of spans-<pid>.bin, in the order Recorder.write in shim.py writes it
SPAN_ARRAYS = (("i", "name"), ("i", "parent"), ("i", "unit"), ("q", "value"),
               ("d", "start"), ("d", "end"))


# --------------------------------------------------------------------------
# workloads


@dataclass
class Cmd:
    """One corrsense command line and what its outputs must look like."""

    kind: str  # "phase", "stable" or "mc"
    argv: list[str]
    outputs: dict[str, str] = field(default_factory=dict)  # flag -> file name
    expect: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Reference key: the command without its output paths and worker count."""
        parts, skip = [], False
        for tok in self.argv:
            if skip:
                skip = False
            elif tok == "--threads":
                skip = True
            else:
                parts.append(tok)
        return " ".join(parts)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _phase_cmd(experiment, p, n_values, s_sig, s_cor, reps, seed, extra=(), aux=False):
    argv = ["phase", "--experiment", experiment, "--p", str(p)]
    if experiment == "binary_sparse_constrained":
        argv += ["--n-values", _csv(n_values)]
        cells = [(n, None, sc) for n in n_values for sc in s_cor]
    else:
        (n,) = n_values
        argv += ["--n", str(n), "--s-sig-values", _csv(s_sig)]
        cells = [(n, ss, sc) for ss in s_sig for sc in s_cor]
    argv += ["--s-cor-values", _csv(s_cor), "--reps", str(reps), "--seed", str(seed), *extra]
    tag = f"{experiment}-{seed}-{_csv(s_sig)}"
    outputs = {"--out": f"{tag}.csv"}
    if aux:
        outputs.update({"--theory-out": f"{tag}.theory.csv", "--svg": f"{tag}.svg"})
    return Cmd("phase", argv, outputs,
               {"cells": cells, "reps": reps, "theory_rows": len(n_values) if aux else 0})


def _seed(seed: int, offset: int) -> int:
    return (seed * 1000 + offset) % 2**64


def phase_grids(seed: int, size: str) -> list[list[Cmd]]:
    """Criterion-8 slice (with theory overlay and SVG) and the criterion-9 diagonal."""
    if size == "smoke":
        n_values, s_cor, reps8, diag, reps9 = (180,), (10, 60), 1, (4,), 1
    else:
        # every third column of the criterion-8 grid, every row: each column
        # crosses the predicted threshold, so success, failure and capped
        # solves keep roughly the full grid's proportions
        n_values, s_cor, reps8, diag, reps9 = (160, 220, 280), tuple(range(10, 121, 10)), \
            2, (4, 8, 16, 24, 32), 3
    c8 = [_phase_cmd("binary_sparse_constrained", 200, n_values, (), s_cor, reps8, seed, aux=True)]
    constrained = [
        _phase_cmd("sparse_sparse_constrained", 128, (128,), (s,), (s,), reps9, _seed(seed, s))
        for s in diag
    ]
    penalized = [
        _phase_cmd("sparse_sparse_penalized", 128, (128,), (s,), (s,), reps9, _seed(seed, s),
                   extra=("--lambda-rule", "opt"))
        for s in diag
    ]
    return [c8, constrained, penalized]


def _stable(seed: int, size: str, threads: int) -> list[list[Cmd]]:
    """Criterion-11 study: p in {50, 100}, n in {400, 600, 800}, delta = 1."""
    p_values, n_values, reps = ((50,), (400,), 2) if size == "smoke" else \
        ((50, 100), (400, 600, 800), 8)
    argv = ["stable", "--p-values", _csv(p_values), "--n-values", _csv(n_values),
            "--delta", "1", "--reps", str(reps), "--seed", str(seed)]
    if threads > 1:
        argv += ["--threads", str(threads)]
    # every cell of this grid is above the recovery threshold, so none is excluded
    rows = [(p, n, r) for p in p_values for n in n_values for r in range(reps)]
    return [[Cmd("stable", argv, {"--out": "stable.csv"}, {"rows": rows})]]


def stable_noisy(seed: int, size: str) -> list[list[Cmd]]:
    return _stable(seed, size, 1)


def stable_pool(seed: int, size: str) -> list[list[Cmd]]:
    return _stable(seed, size, POOL_THREADS)


def cone_mc(seed: int, size: str) -> list[list[Cmd]]:
    """Sampled cone complexities at criterion-5 sizes, alone and next to the bounds."""
    samples = 100 if size == "smoke" else 2000
    structures = [
        (["--structure", "sparse", "--p", "1000", "--s", "100"],
         ["--structure", "sparse", "--p", "1000", "--s", "50"]),
        (["--structure", "block", "--m", "100", "--k", "10", "--s", "20"],
         ["--structure", "block", "--m", "100", "--k", "10", "--s", "5"]),
        (["--structure", "lowrank", "--m1", "30", "--m2", "20", "--r", "3"],
         ["--structure", "lowrank", "--m1", "30", "--m2", "20", "--r", "2"]),
    ]
    cmds = []
    for mc_flags, bounds_flags in structures:
        cmds.append(Cmd("mc", ["mc-complexity", *mc_flags, "--samples", str(samples),
                               "--seed", str(seed)], expect={"samples": samples}))
        cmds.append(Cmd("mc", ["bounds", *bounds_flags, "--mc", str(samples),
                               "--seed", str(seed)], expect={"samples": samples}))
    return [cmds]


BUILDERS = {
    "phase_grids": phase_grids,
    "stable_noisy": stable_noisy,
    "stable_pool": stable_pool,
    "cone_mc": cone_mc,
}


# --------------------------------------------------------------------------
# running one job in a child process


@dataclass
class JobResult:
    setup_s: float | None
    wall_s: float | None
    rss_mb: float
    counters: dict
    codes: list[int]
    records: list[dict]


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_job(cmds: list[Cmd], jobdir: Path, mode: str) -> JobResult:
    jobdir.mkdir(parents=True)
    commands = []
    for cmd in cmds:
        argv = list(cmd.argv)
        for flag, name in cmd.outputs.items():
            argv += [flag, str(jobdir / name)]
        commands.append(argv)
    (jobdir / "argv.json").write_text(json.dumps(commands))

    start = time.perf_counter()
    # its own session, so that a timeout also kills the job's pool workers
    with subprocess.Popen([sys.executable, str(SHIM), str(jobdir), mode], env=_child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stderr = proc.communicate(timeout=JOB_TIMEOUT_S)[1].decode(errors="replace")
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            stderr = f"job timed out after {JOB_TIMEOUT_S} s"

    records = [json.loads(p.read_text()) for p in sorted(jobdir.glob("proc-*.json"))]
    main = [r for r in records if r["main"]]
    if not main:
        print(f"job in {jobdir.name} left no record:\n{stderr}", file=sys.stderr)
        return JobResult(None, None, 0.0, {}, [-1] * len(cmds), records)
    firsts = [r["first_unit"] for r in records if r["first_unit"] is not None]
    commands_run = main[0]["commands"]
    setup = wall = None
    if firsts:
        setup = min(firsts) - start
        wall = max(c["end"] for c in commands_run) - min(firsts)
    counters = {k: sum(r[k] for r in records) for k in COUNTERS}
    rss_mb = sum(r["maxrss_kb"] for r in records) / 1024.0
    return JobResult(setup, wall, rss_mb, counters, [c["code"] for c in commands_run],
                     records)


# --------------------------------------------------------------------------
# checking outputs


def _read_lines(path: Path) -> list[str] | None:
    try:
        return path.read_text().splitlines()
    except OSError:
        return None


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _kv(lines: list[str]) -> dict[str, float]:
    out = {}
    for line in lines:
        key, sep, val = line.partition("=")
        if sep:
            out[key] = float(val)
    return out


def _parse_phase(cmd: Cmd, jobdir: Path, tally: dict) -> dict | None:
    """unit key -> successes; None when the output breaks its format.

    Adds the solves and capped solves the CSV reports to ``tally``.
    """
    lines = _read_lines(jobdir / cmd.outputs["--out"])
    cells, reps = cmd.expect["cells"], cmd.expect["reps"]
    if lines is None or len(lines) != len(cells) + 1 or lines[0] != PHASE_HEADER:
        return None
    units = {}
    for line, (n, ss, sc) in zip(lines[1:], cells):
        parts = line.split(",")
        if len(parts) != 12:
            return None
        exp, _p, n_s, _m, _k, ss_s, sc_s, reps_s, succ_s, rate_s, _mre, status = parts
        try:
            succ = int(succ_s)
            row_ok = (exp, int(n_s), int(ss_s) if ss_s else None, int(sc_s), int(reps_s)) == \
                (cmd.argv[2], n, ss, sc, reps) and 0 <= succ <= reps and float(rate_s) == float(
                    "%.9g" % (succ / reps))
        except ValueError:
            return None
        if not row_ok or not (status in ("ok", "degenerate") or status.startswith("maxiter:")):
            return None
        # a degenerate cell stops before its first solve
        tally["solves"] += 0 if status == "degenerate" else reps
        tally["capped"] += int(status[8:]) if status.startswith("maxiter:") else 0
        units[f"{cmd.key}|n={n},s_sig={ss},s_cor={sc}"] = succ
    if cmd.expect["theory_rows"]:
        theory = _read_lines(jobdir / cmd.outputs["--theory-out"])
        svg = _read_lines(jobdir / cmd.outputs["--svg"])
        if not theory or theory[0] != THEORY_HEADER or \
                len(theory) != cmd.expect["theory_rows"] + 1:
            return None
        if not svg or not svg[0].startswith("<svg") or svg[-1].strip() != "</svg>":
            return None
    return units


def _parse_stable(cmd: Cmd, jobdir: Path, tally: dict) -> dict | None:
    lines = _read_lines(jobdir / cmd.outputs["--out"])
    rows = cmd.expect["rows"]
    if lines is None or len(lines) != len(rows) + 1 or lines[0] != STABLE_HEADER:
        return None
    units, ratios = {}, {}
    for line, (p, n, rep) in zip(lines[1:], rows):
        parts = line.split(",")
        try:
            coords = tuple(int(v) for v in parts[:3])
            err, rescaled = float(parts[3]), float(parts[4])
        except (ValueError, IndexError):
            return None
        if coords != (p, n, rep) or not (math.isfinite(err) and err > 0 and rescaled > 0):
            return None
        # the rescaling factor depends on the cell only
        ratio = ratios.setdefault((p, n), rescaled / err)
        if not _close(ratio, rescaled / err, 1e-6):
            return None
        units[f"{cmd.key}|p={p},n={n},rep={rep}"] = [err, rescaled]
    tally["solves"] += len(rows)
    return units


def _parse_mc(cmd: Cmd, out_lines: list[str]) -> dict | None:
    try:
        kv = _kv(out_lines)
    except ValueError:
        return None
    mean, se = kv.get("mc_mean"), kv.get("mc_se")
    if mean is None or se is None or not (mean > 0 and se > 0):
        return None
    if "samples" in kv and kv["samples"] != cmd.expect["samples"]:
        return None
    # the sampled mean estimates a quantity every closed form bounds from above
    if "eta_sq_opt" in kv and mean - MC_BOUND_SE * se > kv["eta_sq_opt"]:
        return None
    return {cmd.key: [mean, se]}


def _unit_ok(key: str, ref, value) -> bool:
    if isinstance(ref, int):
        return ref == value
    rtol = STABLE_RTOL if key.startswith("stable ") else MC_RTOL
    return all(_close(a, b, rtol) for a, b in zip(ref, value))


def expected_units(cmd: Cmd) -> int:
    if cmd.kind == "phase":
        return len(cmd.expect["cells"])
    if cmd.kind == "stable":
        return len(cmd.expect["rows"])
    return 1


def check_pass(jobs, jobdirs, results, reference, first_units, problems):
    """Return (attempted, failed, unit values) for one pass.

    A unit fails when its command exited nonzero, when the output breaks
    its format or invariants, when it differs from the committed reference
    (if the seed has one), or when it differs from the same unit in the
    run's first pass.  The solve and capped counts the wrappers saw must
    equal those the outputs report; a mismatch goes to ``problems``.
    """
    attempted = failed = 0
    values = {}
    for cmds, jobdir, res in zip(jobs, jobdirs, results):
        tally = {"solves": 0, "capped": 0}
        for i, (cmd, code) in enumerate(zip(cmds, res.codes)):
            count = expected_units(cmd)
            attempted += count
            units = None
            if code == 0:
                if cmd.kind == "phase":
                    units = _parse_phase(cmd, jobdir, tally)
                elif cmd.kind == "stable":
                    units = _parse_stable(cmd, jobdir, tally)
                else:
                    units = _parse_mc(cmd, _read_lines(jobdir / f"cmd-{i}.out") or [])
            if units is None:
                err = (_read_lines(jobdir / f"cmd-{i}.err") or [])[-3:]
                print(f"command failed (exit {code}): {' '.join(cmd.argv)} {err}",
                      file=sys.stderr)
                failed += count
                continue
            for key, value in units.items():
                bad = (reference is not None and (key not in reference
                                                  or not _unit_ok(key, reference[key], value)))
                bad = bad or (first_units is not None and first_units.get(key) != value)
                if bad:
                    print(f"unit disagrees: {key}: got {value}, reference "
                          f"{None if reference is None else reference.get(key)}", file=sys.stderr)
                failed += bad
            values.update(units)
        counted = {k: res.counters.get(k) for k in tally}
        if not failed and counted != tally:
            problems.append(f"{jobdir.name}: wrappers counted {counted}, outputs report {tally}")
    return attempted, failed, values


# --------------------------------------------------------------------------
# per-layer numbers from spans


def load_spans(jobdir: Path, record: dict) -> dict:
    count = record["spans"]
    spans = {}
    with open(jobdir / f"spans-{record['pid']}.bin", "rb") as fh:
        for code, name in SPAN_ARRAYS:
            arr = array(code)
            arr.fromfile(fh, count)
            spans[name] = arr
    return spans


def _pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


class LayerTotals:
    """Sums over the spans of the traced passes of a run."""

    def __init__(self):
        self.time = {}  # span name -> total seconds
        self.calls = {}  # span name -> count
        self.value = {}  # span name -> total value
        self.solve_iters = []
        self.solve_ms = []
        self.solve_self = 0.0
        self.driver = 0.0
        self.driver_self = 0.0
        self.capped = 0
        self.failed_iters = 0
        self.problems = []

    def add_process(self, names, spans):
        n = len(spans["start"])
        start, end, parent, value = spans["start"], spans["end"], spans["parent"], spans["value"]
        child_time = [0.0] * n
        for i in range(n):
            dur = end[i] - start[i]
            j = parent[i]
            if j >= 0:
                if start[i] < start[j] or end[i] > end[j]:
                    self.problems.append(f"span {names[spans['name'][i]]} escapes its parent")
                child_time[j] += dur
        for i in range(n):
            name = names[spans["name"][i]]
            dur = end[i] - start[i]
            if child_time[i] > dur + 1e-9:
                self.problems.append(f"children of {name} exceed its span")
            self.time[name] = self.time.get(name, 0.0) + dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.value[name] = self.value.get(name, 0) + value[i]
            if name == "solver.solve":
                iters, capped, unsuccessful = value[i] >> 2, (value[i] >> 1) & 1, value[i] & 1
                self.solve_iters.append(iters)
                self.solve_ms.append(1e3 * dur)
                self.solve_self += dur - child_time[i]
                self.capped += capped
                self.failed_iters += iters if unsuccessful else 0
            elif name.startswith("experiments.run_"):
                self.driver += dur
                self.driver_self += dur - child_time[i]


def layer_metrics(t: LayerTotals, passes: int, traced_wall: float, untraced_wall: float,
                  pool_speedup: float) -> dict[str, float]:
    """Per-layer metrics; counts are per pass, since every traced pass repeats them."""
    iters = sum(t.solve_iters)
    solves = len(t.solve_iters)

    def per(total, base, scale):
        return scale * total / base if base else 0.0

    m = {
        "solver.solves": solves // passes,
        "solver.iters_total": iters // passes,
        "solver.iters_p50": statistics.median(t.solve_iters) if solves else 0,
        "solver.iters_p90": _pct(t.solve_iters, 0.9),
        "solver.capped_share": per(t.capped, solves, 1.0),
        "solver.failed_rep_iter_share": per(t.failed_iters, iters, 1.0),
        "solver.us_per_iter": per(t.time.get("solver.solve", 0.0), iters, 1e6),
        "solver.bookkeeping_us_per_iter": per(t.solve_self, iters, 1e6),
        "solver.cho_solve_us_per_iter": per(t.time.get("solver.cho_solve", 0.0), iters, 1e6),
        "solver.cho_factor_ms_per_solve": per(t.time.get("solver.cho_factor", 0.0), solves, 1e3),
        "solver.solve_ms_p50": statistics.median(t.solve_ms) if solves else 0.0,
        "solver.solve_ms_p90": _pct(t.solve_ms, 0.9),
    }
    for fn in PROX_FNS:
        name = f"prox.{fn}"
        m[f"prox.calls.{fn}"] = t.calls.get(name, 0) // passes
        m[f"prox.us_per_call.{fn}"] = per(t.time.get(name, 0.0), t.calls.get(name, 0), 1e6)
    gen_time = sum(v for k, v in t.time.items() if k.startswith("generate."))
    reps = t.calls.get("generate.gen_gaussian_matrix", 0)
    m["generate.ms_per_rep"] = per(gen_time, reps, 1e3)
    m["generate.wall_share"] = per(gen_time, traced_wall, 1.0)
    m["experiments.driver_self_share"] = per(t.driver_self, t.driver, 1.0)
    m["experiments.pool_speedup"] = pool_speedup
    for fn in GEOMETRY_FNS:
        name = f"geometry.{fn}"
        m[f"geometry.calls.{fn}"] = t.calls.get(name, 0) // passes
        m[f"geometry.ms_per_call.{fn}"] = per(t.time.get(name, 0.0), t.calls.get(name, 0), 1e3)
    m["penalties.ms_per_plan"] = per(t.time.get("penalties.penalty_plan", 0.0),
                                     t.calls.get("penalties.penalty_plan", 0), 1e3)
    for structure in MC_STRUCTURES:
        name = f"mc.mc_complexity.{structure}"
        m[f"mc.us_per_sample.{structure}"] = per(t.time.get(name, 0.0), t.value.get(name, 0), 1e6)
    m["heatmap.render_ms"] = per(t.time.get("heatmap.render_heatmap_svg", 0.0),
                                 t.calls.get("heatmap.render_heatmap_svg", 0), 1e3)
    m["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    return m


PROX_FNS = ("prox_norm.l1", "project_norm_ball.l1", "project_norm_ball.linf", "project_l2_ball")
GEOMETRY_FNS = ("sparse_dist_optimal", "block_dist_optimal", "chi_mean", "lowrank_bounds")
MC_STRUCTURES = ("sparse", "block", "lowrank")
COUNT_METRICS = ("solver.solves", "solver.iters_total", "solver.iters_p50", "solver.iters_p90",
                 "solver.capped_share", "solver.failed_rep_iter_share",
                 *(f"prox.calls.{fn}" for fn in PROX_FNS),
                 *(f"geometry.calls.{fn}" for fn in GEOMETRY_FNS))


# --------------------------------------------------------------------------
# one run


@dataclass
class Pass:
    mode: str
    results: list[JobResult]
    attempted: int
    failed: int

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results if r.wall_s is not None)

    @property
    def counters(self) -> dict:
        return {k: sum(r.counters.get(k, 0) for r in self.results) for k in COUNTERS}


def load_reference(size: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(size, {}).get(str(seed))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 reference: dict | None = None, record_reference: bool = False) -> dict:
    """Run passes until ``seconds`` is used up; return the result object."""
    jobs = BUILDERS[workload](seed, size)
    if reference is None and not record_reference:
        reference = load_reference(size, seed)
    base = WORK / workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    passes: list[Pass] = []
    first_units = None
    problems = []
    t0 = time.perf_counter()

    def one_pass(mode, pass_jobs=jobs, check=True):
        nonlocal first_units
        index = len(passes)
        dirs = [base / f"pass{index}-job{j}" for j in range(len(pass_jobs))]
        results = [run_job(cmds, d, mode) for cmds, d in zip(pass_jobs, dirs)]
        attempted = failed = 0
        if check:
            attempted, failed, values = check_pass(pass_jobs, dirs, results, reference,
                                                   first_units, problems)
            if first_units is None:
                first_units = values
        p = Pass(mode, results, attempted, failed)
        passes.append(p)
        return p, dirs

    totals = LayerTotals()
    if trace:
        # untraced and traced passes alternate, so both see the same machine
        walls = {"count": [], "trace": []}
        pool_speedup = 0.0
        while True:
            started = time.perf_counter()
            untraced, _ = one_pass("count")
            walls["count"].append(untraced.wall_s)
            if workload == "stable_pool" and not pool_speedup:
                serial, _ = one_pass("count", stable_noisy(seed, size), check=False)
                pool_speedup = serial.wall_s / untraced.wall_s
            p, dirs = one_pass("trace")
            walls["trace"].append(p.wall_s)
            before = (len(totals.solve_iters), sum(totals.solve_iters), totals.capped)
            for res, d in zip(p.results, dirs):
                for rec in res.records:
                    if "spans" in rec:
                        totals.add_process(rec["names"], load_spans(d, rec))
            spans = (len(totals.solve_iters) - before[0], sum(totals.solve_iters) - before[1],
                     totals.capped - before[2])
            counted = [(c["solves"], c["iters"], c["capped"])
                       for c in (p.counters, untraced.counters, passes[0].counters)]
            if any(c != spans for c in counted):
                problems.append(f"solver counts differ: spans {spans}, counters (traced, "
                                f"untraced, first pass) {counted}")
            if time.perf_counter() - t0 + (time.perf_counter() - started) > seconds:
                break
        problems.extend(sorted(set(totals.problems)))
        metrics = layer_metrics(totals, len(walls["trace"]), statistics.median(walls["trace"]),
                                statistics.median(walls["count"]), pool_speedup)
    else:
        while True:
            started = time.perf_counter()
            one_pass("count")
            if time.perf_counter() - t0 + (time.perf_counter() - started) > seconds:
                break
        setups = [r.setup_s for p in passes for r in p.results if r.setup_s is not None]
        if not setups:
            sys.exit(f"error: no work unit of {workload} ever started")
        walls = [p.wall_s for p in passes]
        rss = [max(r.rss_mb for r in p.results) for p in passes]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
        }

    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if record_reference:
        data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        data.setdefault(size, {}).setdefault(str(seed), {}).update(first_units or {})
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    versions = next((r["versions"] for p in passes for res in p.results
                     for r in res.records if r.get("main")), {})
    print(f"# {workload} seed={seed} size={size} trace={int(trace)} passes={len(passes)} "
          f"reference={'yes' if reference else 'no'} env={json.dumps(versions)}")
    for i, p in enumerate(passes):
        setups = " ".join(f"{r.setup_s:.3f}" for r in p.results if r.setup_s is not None)
        print(f"# pass {i} {p.mode}: wall_s {p.wall_s:.3f} setup_s {setups} "
              f"counters {json.dumps(p.counters)}")
    print(f"# failed_share = {failed}/{attempted} units = "
          f"{failed / attempted if attempted else float('nan'):.4g}")
    units = metric_units()
    return {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


# --------------------------------------------------------------------------


def metric_units() -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="smoke runs each workload at minimal size")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "corrsense" / "cli.py").is_file():
        print(f"error: no corrsense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                         args.size, record_reference=args.record_reference)
    for workload, res in results.items():
        for name, entry in res["metrics"].items():
            print(f"{workload:13s} {name:40s} {entry['value']:.6g} {entry['unit']}")
        share = res["failed"] / res["attempted"] if res["attempted"] else float("nan")
        print(f"{workload:13s} {'failed_share':40s} {share:.6g} ratio "
              f"({res['failed']} of {res['attempted']} units)")
    if len(results) == 1:
        (out,) = results.values()
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": entry for w, r in results.items()
                        for name, entry in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
