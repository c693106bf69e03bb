"""gtap benchmark: one workload per process, closed loop, one task at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy. Workloads (see workloads.py):
parisi_rsb, correction_rs, mc_identities, small_n; ``all`` runs each of them
in its own process, timed and then traced, and prints every metric.

``--trace 0`` times every task with ``time.perf_counter`` while nothing is
patched and prints the end-to-end metrics. ``--trace 1`` runs the first half
of the task list, each task once untraced and once with every public gtap
function wrapped (tracer.py), and prints per-layer metrics as means per
task, plus the tracing overhead.

``setup_s`` is the median time of five fresh interpreters importing gtap plus
the median of three input generations (files, RS certification, cascade
targets, r=1 reference values).

A pass runs every task of the seeded list, a short task several times spread
over the pass (``Task.reps``). Passes repeat while the next one is expected
to end within ``--seconds``; there is always at least one.
A task's time is the median of its executions in the run, and the timed
metrics are taken over those per-task times, so how many passes fit changes
the number of samples, not what is measured.

The workload's process keeps the memory it frees mapped (see
``keep_freed_memory``), so timings do not include the host's page-fault
handling of numpy temporaries, whose cost made repeated runs disagree.

Besides the task checks, the run fails its correctness verdict when a CLI
output file differs between executions of the same input, or when a count
marked exact differs from an earlier run of the same source in this
checkout (state kept under perfbench/.state/). Oracle errors and optimizer
values are printed as diagnostics, never as metrics. The last line of
standard output is the JSON result; the full record, with machine facts, is
written to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
IMPORT_REPEATS, SETUP_REPEATS = 5, 3
MODULES = ("model", "measures", "numerics", "pde", "tap", "rs", "disorder",
           "cascades", "cli")
# Counts that must repeat bit for bit for the same input and source.
EXACT = ("pde.solves", "pde.layers", "numerics.hermite_eval.points",
         "pde.path_steps", "tap.level_evals", "disorder.pairs")


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing gtap, median of repeats."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import numpy, gtap, gtap.cli, gtap.disorder, gtap.cascades"
    times = []
    for _ in range(IMPORT_REPEATS):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        times.append(perf_counter() - t)
    return statistics.median(times)


def keep_freed_memory() -> bool:
    """Ask glibc to keep freed memory mapped instead of returning it to the OS.

    By default numpy's large temporaries are mapped afresh on each call, and
    every 4 KiB of them costs a page fault: one SDE identity check takes
    about 1.1 million, a third of its time on a 2-core VM, and what they cost
    there depends on the load on the host. With these thresholds,
    allocations below 32 MiB reuse the heap once a task has run.
    Returns whether the allocator accepted both settings."""
    import ctypes
    import ctypes.util
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_trim_threshold, 1 << 30)) and bool(mallopt(m_mmap_threshold, 1 << 25))


def speed_probe() -> float:
    """Seconds for a fixed kernel that does not use gtap; recorded before and
    after the tasks, it shows how fast the machine was during the run."""
    import numpy as np
    x = np.linspace(-3.0, 3.0, 20_000)
    t = perf_counter()
    for _ in range(100):
        np.tanh(x) * np.exp(-x * x)
    sum(range(500_000))
    return perf_counter() - t


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads():
    """OpenBLAS thread count, asked from the library numpy loaded."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(dll, fn):
                f = getattr(dll, fn)
                f.restype = ctypes.c_int
                return int(f())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "gtap").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------------------
# running tasks


def _tree_bytes(d: Path) -> tuple[int, str]:
    h = hashlib.sha256()
    n = 0
    for f in sorted(p for p in d.rglob("*") if p.is_file()):
        data = f.read_bytes()
        n += len(data)
        h.update(f.relative_to(d).as_posix().encode() + b"\0" + data)
    return n, h.hexdigest()[:16]


def execute(task, out: Path, tracer=None) -> dict:
    """Run one task in a fresh directory, time it, check it, clean up."""
    out.mkdir(parents=True)
    if tracer is not None:
        tracer.install()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t = perf_counter()
    try:
        result, error = task.run(out), None
    except Exception:          # a failing task is counted, the run goes on
        result, error = None, traceback.format_exc(limit=3)
    finally:
        dt = perf_counter() - t
        if tracer is not None:
            tracer.uninstall()
    rec = {"key": task.key, "s": dt,
           "faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults}
    if error is None:
        try:
            rec["ok"], rec["diag"] = task.check(result, out)
        except Exception:
            rec["ok"], rec["diag"] = False, {"check_error": traceback.format_exc(limit=3)}
    else:
        rec["ok"], rec["diag"] = False, {"error": error}
    rec["ok"] = bool(rec["ok"])
    rec["bytes"], rec["output_sha"] = _tree_bytes(out) if task.cli else (0, None)
    shutil.rmtree(out)
    return rec


def schedule(tasks) -> list[int]:
    """Task indices in the order one pass executes them. A task with n
    repetitions runs at the fractions (k + 1/2) / n of the pass, so its
    executions lie seconds apart and a slow spell of the machine reaches
    only some of them."""
    slots = [((k + 0.5) / t.reps, i) for i, t in enumerate(tasks) for k in range(t.reps)]
    return [i for _, i in sorted(slots)]


def run_passes(tasks, seconds: float, work: Path) -> tuple[list, int]:
    records, passes = [], 0
    order = schedule(tasks)
    t0 = perf_counter()
    while True:
        tp = perf_counter()
        for n, i in enumerate(order):
            records.append(execute(tasks[i], work / f"p{passes}_e{n}"))
        passes += 1
        now = perf_counter()
        if now - t0 + (now - tp) > seconds:
            return records, passes


def run_traced(tasks, work: Path, tracer) -> tuple[list, list]:
    """One pass: each task untraced, then traced under task id = its index."""
    plain, traced = [], []
    for i, task in enumerate(tasks):
        plain.append(execute(task, work / f"u_t{i}"))
        tracer.task_id = i
        traced.append(execute(task, work / f"x_t{i}", tracer))
    return plain, traced


# ---------------------------------------------------------------------------
# metrics


def per_task(records) -> list[tuple[float, bool]]:
    """Each task's median time over its executions, and whether all passed."""
    by_key = {}
    for r in records:
        by_key.setdefault(r["key"], []).append(r)
    return [(statistics.median(r["s"] for r in rs), all(r["ok"] for r in rs))
            for rs in by_key.values()]


def end_to_end(records, setup_s: float) -> dict:
    tasks = per_task(records)
    times = [t for t, _ in tasks]
    passed = sum(ok for _, ok in tasks)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "tasks_per_s": {"value": passed / sum(times), "unit": "1/s"},
        "task_s_p50": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def per_layer(red: dict, tasks, plain, traced) -> tuple[dict, dict]:
    """Per-layer metrics as means per traced task; also per-task exact counts."""
    n = len(tasks)
    calls, incl, selfs, counts = {}, {}, {}, {}
    exact_by_key = {}
    for i, task in enumerate(tasks):
        r = red.get(i, {"calls": {}, "incl": {}, "self": {}, "counts": {}})
        c = dict(r["counts"], **task.exact)
        c["pde.solves"] = r["calls"].get("pde.PDESolution", 0)
        c["cli.bytes_written"] = traced[i]["bytes"]
        for src, dst in ((r["calls"], calls), (r["incl"], incl), (r["self"], selfs), (c, counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        if traced[i]["ok"]:
            exact_by_key[task.key] = {k: c.get(k, 0) for k in EXACT}

    def C(name):
        return calls.get(name, 0) / n

    def S(name):
        return incl.get(name, 0.0) / n

    def layer_self(layer):
        return sum(v for k, v in selfs.items() if k.startswith(layer + ".")) / n

    def ratio(a, b, scale):
        return a / b * scale if b else 0.0

    layers = counts.get("pde.layers", 0)
    points = counts.get("numerics.hermite_eval.points", 0)
    steps = counts.get("pde.path_steps", 0)
    pairs = counts.get("disorder.pairs", 0)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("pde.solves", counts.get("pde.solves", 0) / n, "count/task")
    put("pde.layers", layers / n, "count/task")
    put("pde.solve_s", S("pde.PDESolution"), "s/task")
    put("pde.layer_us", ratio(incl.get("pde.PDESolution", 0.0), layers, 1e6), "us")
    for f in ("level_gradients", "path_expectation", "inverse_phi_x", "frame_at",
              "phi_x_table"):
        put(f"pde.{f}.calls", C(f"pde.{f}"), "count/task")
        put(f"pde.{f}.s", S(f"pde.{f}"), "s/task")
    put("pde.simulate_control.s", S("pde.simulate_control"), "s/task")
    put("pde.path_steps", steps / n, "count/task")
    put("pde.path_step_ns", ratio(selfs.get("pde.simulate_control", 0.0), steps, 1e9), "ns")
    put("numerics.hermite_eval.calls", C("numerics.hermite_eval"), "count/task")
    put("numerics.hermite_eval.points", points / n, "count/task")
    put("numerics.hermite_eval.s", S("numerics.hermite_eval"), "s/task")
    put("numerics.hermite_eval.ns_per_point",
        ratio(incl.get("numerics.hermite_eval", 0.0), points, 1e9), "ns")
    put("numerics.linear_eval.points", counts.get("numerics.linear_eval.points", 0) / n,
        "count/task")
    put("numerics.linear_eval.s", S("numerics.linear_eval"), "s/task")
    put("numerics.golden_section.calls", C("numerics.golden_section"), "count/task")
    put("numerics.golden_section.s", S("numerics.golden_section"), "s/task")
    put("tap.tap_correction.calls", C("tap.tap_correction"), "count/task")
    put("tap.tap_correction.s", S("tap.tap_correction"), "s/task")
    put("tap.level_evals", counts.get("tap.level_evals", 0) / n, "count/task")
    put("tap.tap_with_zeta.calls", C("tap.tap_with_zeta"), "count/task")
    put("tap.band_solves", C("tap.solution_for"), "count/task")
    put("rs.is_replica_symmetric.s", S("rs.is_replica_symmetric"), "s/task")
    put("rs.classical_tap.s", S("rs.classical_tap"), "s/task")
    put("disorder.all_energies.calls", C("disorder.all_energies"), "count/task")
    put("disorder.all_energies.configs",
        counts.get("disorder.all_energies.configs", 0) / n, "count/task")
    put("disorder.all_energies.s", S("disorder.all_energies"), "s/task")
    put("disorder.tap_Nn.calls", C("disorder.tap_Nn") + C("disorder.tap_Nn.n2"), "count/task")
    put("disorder.tap_Nn.s", S("disorder.tap_Nn") + S("disorder.tap_Nn.n2"), "s/task")
    put("disorder.pairs", pairs / n, "count/task")
    put("disorder.pair_ns", ratio(selfs.get("disorder.tap_Nn.n2", 0.0), pairs, 1e9), "ns")
    put("cascades.sample_cascade.calls", C("cascades.sample_cascade"), "count/task")
    put("cascades.sample_cascade.leaves",
        counts.get("cascades.sample_cascade.leaves", 0) / n, "count/task")
    put("cascades.sample_cascade.s", S("cascades.sample_cascade"), "s/task")
    for f in ("sample_tree_field", "psi_full", "upsilon_mc"):
        put(f"cascades.{f}.s", S(f"cascades.{f}"), "s/task")
    put("cli.main.calls", C("cli.main"), "count/task")
    put("cli.bytes_written", counts.get("cli.bytes_written", 0) / n, "B/task")
    for layer in MODULES:
        put(f"{layer}.self_s", layer_self(layer), "s/task")
    put("trace.overhead_frac",
        sum(r["s"] for r in traced) / sum(r["s"] for r in plain) - 1.0, "ratio")
    return m, exact_by_key


# ---------------------------------------------------------------------------
# repeatability across executions and runs


def _load_state(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def repeatability(workload: str, digest: str, records, exact_by_key) -> list[str]:
    """Compare output hashes and exact counts with every earlier execution of
    the same input under the same source; remember the new ones."""
    path = BENCH / ".state" / "repeat.json"
    state = _load_state(path)
    mine = state.setdefault(digest, {}).setdefault(workload, {})
    problems = []
    for rec in records:
        if rec["output_sha"] is None or not rec["ok"]:
            continue
        entry = mine.setdefault(rec["key"], {})
        prev = entry.setdefault("output_sha", rec["output_sha"])
        if prev != rec["output_sha"]:
            problems.append(f"{rec['key']}: output bytes differ ({prev} vs {rec['output_sha']})")
    for key, counts in exact_by_key.items():
        entry = mine.setdefault(key, {})
        prev = entry.setdefault("exact", counts)
        if prev != counts:
            problems.append(f"{key}: exact counts differ ({prev} vs {counts})")
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, sort_keys=True))
    os.replace(tmp, path)
    return problems


# ---------------------------------------------------------------------------


def diagnostics(workload, records, facts) -> dict:
    diags = [r["diag"] for r in records]
    d = {"workload": workload, "facts": facts,
         "executions": len(records),
         "failed_frac": sum(not r["ok"] for r in records) / len(records),
         "minor_faults_per_execution": sum(r["faults"] for r in records) / len(records)}
    times = [t for t, _ in per_task(records)]
    if len(times) >= 100:      # at least ten samples beyond the percentile
        d["task_s_p90"] = statistics.quantiles(times, n=10)[-1]
    failures = [{"key": r["key"], **r["diag"]} for r in records if not r["ok"]]
    if failures:
        d["failures"] = failures[:10]
    if workload == "parisi_rsb":
        d["values"] = sorted({(x["model"], x["init"], x["value"], x["atoms"])
                              for x in diags if "value" in x})
        by_model = {}
        for model, _init, value, _atoms in d["values"]:
            by_model.setdefault(model, []).append(value)
        d["init_spread"] = {k: max(v) - min(v) for k, v in by_model.items()}
        d["keeps_2_atoms_share"] = sum(x.get("atoms") == 2 for x in diags) / len(diags)
        d["max_functional_gap"] = max(x.get("functional_gap", 0.0) for x in diags)
    elif workload == "correction_rs":
        d["max_tap_minus_classical"] = max(x.get("tap_minus_classical", 0.0) for x in diags)
        d["max_representation_gap"] = max(x.get("representation_gap", 0.0) for x in diags)
    elif workload == "mc_identities":
        d["n_sigma"] = {x["check"]: x["n_sigma"] for x in diags if "check" in x}
    elif workload == "small_n":
        chains = [x for x in diags if "chain_1" in x]
        d["min_chain_1"] = min(x["chain_1"] for x in chains)
        d["min_chain_2"] = min(x["chain_2"] for x in chains)
        d["concentration_tails"] = [x["tails"] for x in diags if "tails" in x][:3]
    return d


def run_all(args) -> int:
    """Every workload in its own process: a timed run, then a traced run."""
    import workloads
    verdicts = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if r.returncode != 0:
                print(r.stderr, file=sys.stderr)
                return r.returncode
            res = json.loads(r.stdout.strip().splitlines()[-1])
            verdicts[f"{name}/trace{trace}"] = res["correct"]
            for metric, v in res["metrics"].items():
                print(f"{name:14s} {metric:40s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({"correct": verdicts}))
    return 0 if all(verdicts.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gtap" / "__init__.py").is_file():
        print(f"gtap sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        sys.path.insert(0, str(SRC))
        return run_all(args)
    import_s = import_seconds()     # before this process starts BLAS threads
    kept = keep_freed_memory()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import gtap
    import tracer as tracing
    import workloads
    if not Path(gtap.__file__).resolve().is_relative_to(SRC):
        print(f"gtap imported from {gtap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            d = work / f"inputs{i}"
            d.mkdir(parents=True)
            t = perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, d)
            setups.append(perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        digest = source_digest()
        exact_by_key = {}
        probes = [speed_probe()]
        if args.trace:
            # Each traced task also runs untraced, so half the list keeps a
            # traced run near the length of one timed pass.
            tasks = wl.tasks[:(len(wl.tasks) + 1) // 2]
            tr = tracing.Tracer(MODULES)
            plain, traced = run_traced(tasks, work / "out", tr)
            metrics, exact_by_key = per_layer(tr.reduce(), tasks, plain, traced)
            records = plain + traced
            spans = tr.arrays()
        else:
            records, passes = run_passes(wl.tasks, args.seconds, work / "out")
            metrics = end_to_end(records, setup_s)
        probes.append(speed_probe())
        problems = repeatability(args.workload, digest, records, exact_by_key)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    diag = diagnostics(args.workload, records, wl.facts)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    diag["why"] = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload)
    diag["setup_runs_s"] = setups
    diag["import_s"] = import_s
    diag["speed_probe_s"] = probes
    diag["keeps_freed_memory"] = kept
    if not args.trace:
        diag["passes"] = passes
    if problems:
        diag["repeatability_problems"] = problems[:10]
    failed = sum(not r["ok"] for r in records)
    result = {"correct": failed == 0 and not problems, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    record = {"result": result, "diagnostics": diag, "machine": machine_facts(np),
              "args": vars(args),
              "tasks": [[r["key"], r["s"], r["ok"], r["diag"]] for r in records]}
    outdir = BENCH / ".out"
    outdir.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        np.savez_compressed(outdir / f"spans_{args.workload}.npz",
                            names=np.array(tr.names), **spans)
        (outdir / f"exact_{args.workload}_seed{args.seed}.json").write_text(
            json.dumps(exact_by_key, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"diagnostics": diag, "machine": record["machine"]}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
