"""Child process of the benchmark: one job, measured from outside corrsense.

    python3 shim.py JOBDIR MODE

JOBDIR holds ``argv.json``, a list of corrsense command lines.  The shim
runs each through ``corrsense.cli.main(argv)`` in this one process, with
its stdout and stderr sent to ``cmd-<i>.out`` / ``cmd-<i>.err``.  MODE is

* ``count``: only the counters the end-to-end metrics need are kept (time
  the first work unit began, solves, iterations, capped solves, peak RSS);
* ``trace``: every call into a wrapped layer function is also kept as a
  span (name, start, end, parent span, work unit, value).

Wrappers replace module attributes at the names through which the caller
looks a function up (``corrsense.experiments.solve``,
``corrsense.solver.cho_solve``, ...), so no corrsense source changes.
Spans stay in memory; each process writes ``proc-<pid>.json`` (and, when
tracing, ``spans-<pid>.bin``) once it ends.  Forked pool workers inherit
the wrappers and write their record from a multiprocessing finalizer,
which runs when the pool shuts its workers down.

Times are ``time.perf_counter()`` readings, which on Linux come from
CLOCK_MONOTONIC and so compare across processes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import sys
import time
import traceback
from array import array
from multiprocessing import util as mp_util

# A noiseless rep succeeds when its relative error is under the CLI's default
# --success-tol; the benchmark never overrides that flag.
SUCCESS_TOL = 1e-3

now = time.perf_counter


class Recorder:
    """Per-process counters and span buffers."""

    def __init__(self, jobdir: str, trace: bool):
        self.jobdir = jobdir
        self.trace = trace
        self.pid = os.getpid()
        self.is_main = True
        self.command = 0
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        self.first_unit: float | None = None
        self.solves = 0
        self.iters = 0
        self.capped = 0
        self.failed_iters = 0
        self.units: list[str] = []
        self.unit = -1
        self.stack: list[int] = []
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_unit = array("i")
        self.s_value = array("q")
        self.s_start = array("d")
        self.s_end = array("d")

    def check_process(self) -> None:
        """Start afresh in a forked worker; its record is written at exit."""
        pid = os.getpid()
        if pid == self.pid:
            return
        self.pid = pid
        self.is_main = False
        self._reset()
        mp_util.Finalize(None, self.write, exitpriority=10)

    def begin_unit(self, key: str) -> None:
        self.check_process()
        if self.first_unit is None:
            self.first_unit = now()
        if self.trace:
            self.unit = len(self.units)
            self.units.append(f"cmd={self.command}:{key}")

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_span(self, nid: int) -> int:
        idx = len(self.s_start)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1] if self.stack else -1)
        self.s_unit.append(self.unit)
        self.s_value.append(0)
        self.s_end.append(0.0)
        self.stack.append(idx)
        self.s_start.append(now())
        return idx

    def close_span(self, idx: int, value: int = 0) -> None:
        self.s_end[idx] = now()
        self.s_value[idx] = value
        self.stack.pop()

    def write(self, extra: dict | None = None) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record = {
            "pid": self.pid,
            "main": self.is_main,
            "first_unit": self.first_unit,
            "maxrss_kb": usage.ru_maxrss,
            "solves": self.solves,
            "iters": self.iters,
            "capped": self.capped,
            "failed_iters": self.failed_iters,
        }
        if self.trace:
            record["names"] = self.names
            record["units"] = self.units
            record["spans"] = len(self.s_start)
            with open(os.path.join(self.jobdir, f"spans-{self.pid}.bin"), "wb") as fh:
                for arr in (self.s_name, self.s_parent, self.s_unit,
                            self.s_value, self.s_start, self.s_end):
                    arr.tofile(fh)
        record.update(extra or {})
        path = os.path.join(self.jobdir, f"proc-{self.pid}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(record, fh)
        os.replace(path + ".tmp", path)


def _span_wrapper(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open_span(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close_span(idx)

    return wrapper


def _norm_wrapper(rec: Recorder, fn_name: str, fn):
    """Spans named after the function and the norm family of its first argument."""
    ids: dict[type, int] = {}

    @functools.wraps(fn)
    def wrapper(kind, *args, **kwargs):
        nid = ids.get(type(kind))
        if nid is None:
            nid = ids[type(kind)] = rec.name_id(f"prox.{fn_name}.{type(kind).__name__.lower()}")
        idx = rec.open_span(nid)
        try:
            return fn(kind, *args, **kwargs)
        finally:
            rec.close_span(idx)

    return wrapper


def _unit_key(seed) -> str:
    """Work unit of a rep from its seed path: the grid cell, or the stable-study row."""
    path = dict(seed.path[:-1])
    if "stable_error" in path:
        return f"stable:cell={path['cell']}:rep={path['rep']}"
    return f"{seed.path[0][0]}:cell={path['cell']}"


def install(rec: Recorder) -> None:
    import numpy as np

    import corrsense.cli as cli
    import corrsense.experiments as experiments
    import corrsense.penalties as penalties
    import corrsense.solver as solver
    from corrsense.solver import CONVERGED

    solve_nid = rec.name_id("solver.solve")
    gen_nid = rec.name_id("generate.gen_gaussian_matrix")
    orig_solve = experiments.solve
    orig_gen = experiments.gen_gaussian_matrix

    def traced_solve(instance, spec, config=None):
        idx = rec.open_span(solve_nid) if rec.trace else -1
        try:
            result = orig_solve(instance, spec, config)
        finally:
            if idx >= 0:
                rec.close_span(idx)
        capped = result.status != CONVERGED
        unsuccessful = capped
        if not capped and instance.delta == 0.0 and instance.x_star is not None:
            denom = float(np.linalg.norm(instance.x_star))
            err = float(np.linalg.norm(result.x_hat - instance.x_star))
            unsuccessful = not (err / denom if denom > 0 else err) < SUCCESS_TOL
        rec.solves += 1
        rec.iters += result.iterations
        rec.capped += capped
        rec.failed_iters += result.iterations if unsuccessful else 0
        if idx >= 0:
            # value packs iterations with two flag bits: capped, unsuccessful
            rec.s_value[idx] = result.iterations * 4 + 2 * capped + unsuccessful
        return result

    def traced_gen(n, p, seed):
        rec.begin_unit(_unit_key(seed))
        if not rec.trace:
            return orig_gen(n, p, seed)
        idx = rec.open_span(gen_nid)
        try:
            return orig_gen(n, p, seed)
        finally:
            rec.close_span(idx)

    experiments.solve = functools.wraps(orig_solve)(traced_solve)
    experiments.gen_gaussian_matrix = functools.wraps(orig_gen)(traced_gen)

    # cone_mc has no reps: its units are MC estimates
    mc_ids: dict[type, int] = {}
    orig_mc = cli.mc_complexity

    def traced_mc(structure, exemplar_seed, samples, seed):
        rec.begin_unit(f"mc:{structure!r}")
        if not rec.trace:
            return orig_mc(structure, exemplar_seed, samples, seed)
        nid = mc_ids.get(type(structure))
        if nid is None:
            label = {"Sparse": "sparse", "BlockSparse": "block", "LowRank": "lowrank",
                     "Binary": "binary"}.get(type(structure).__name__, "other")
            nid = mc_ids[type(structure)] = rec.name_id(f"mc.mc_complexity.{label}")
        idx = rec.open_span(nid)
        try:
            return orig_mc(structure, exemplar_seed, samples, seed)
        finally:
            rec.close_span(idx, samples)

    cli.mc_complexity = functools.wraps(orig_mc)(traced_mc)

    if not rec.trace:
        return

    targets = [
        (cli, "run_phase_grid", "experiments.run_phase_grid"),
        (cli, "run_stable_error", "experiments.run_stable_error"),
        (cli, "render_heatmap_svg", "heatmap.render_heatmap_svg"),
        (experiments, "gen_signal", "generate.gen_signal"),
        (experiments, "gen_corruption", "generate.gen_corruption"),
        (experiments, "gen_noise", "generate.gen_noise"),
        (experiments, "assemble", "generate.assemble"),
        (experiments, "penalty_plan", "penalties.penalty_plan"),
        (solver, "cho_factor", "solver.cho_factor"),
        (solver, "cho_solve", "solver.cho_solve"),
        (solver, "project_l2_ball", "prox.project_l2_ball"),
    ]
    for module in (experiments, penalties):
        for fn_name in ("sparse_dist_optimal", "block_dist_optimal", "chi_mean"):
            targets.append((module, fn_name, f"geometry.{fn_name}"))
    for fn_name in ("sparse_dist_optimal", "block_dist_optimal", "lowrank_bounds"):
        targets.append((cli, fn_name, f"geometry.{fn_name}"))
    for module, attr, name in targets:
        setattr(module, attr, _span_wrapper(rec, name, getattr(module, attr)))
    for attr in ("prox_norm", "project_norm_ball"):
        setattr(solver, attr, _norm_wrapper(rec, attr, getattr(solver, attr)))


def versions() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    jobdir, mode = sys.argv[1], sys.argv[2]
    with open(os.path.join(jobdir, "argv.json")) as fh:
        commands = json.load(fh)
    rec = Recorder(jobdir, trace=(mode == "trace"))
    import corrsense.cli as cli

    install(rec)
    root = rec.name_id("cli.main") if rec.trace else -1
    results = []
    for i, argv in enumerate(commands):
        rec.command, rec.unit = i, -1
        out_path = os.path.join(jobdir, f"cmd-{i}.out")
        err_path = os.path.join(jobdir, f"cmd-{i}.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = now()
                idx = rec.open_span(root) if rec.trace else -1
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash fails this command's units, not the job
                    traceback.print_exc()
                    code = -1
                finally:
                    if idx >= 0:
                        rec.close_span(idx)
        results.append({"code": code, "start": start, "end": now()})
    rec.write({"commands": results, "versions": versions()})
    return 0 if all(r["code"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
