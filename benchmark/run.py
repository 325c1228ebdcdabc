#!/usr/bin/env python3
"""The repository benchmark: builds benchmark/mosaic_perf and measures the
simulator on the workloads named in BENCHMARK.json (see benchmark/README.md).

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. Prints every metric by name with its unit;
      the last line of stdout is {"correct", "attempted", "failed",
      "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
      metrics (--trace 1).
  python3 benchmark/run.py [--reps R] [--seed N] [--seconds S] [--append]
      The ledger: every workload R times in rotated order, then one traced
      run of each; writes benchmark/results/<commit>-<fingerprint>.json.
  python3 benchmark/run.py --smoke
      One small cell per workload and a tiny layer pass; fails unless every
      metric of BENCHMARK.json comes out with its unit.
  python3 benchmark/run.py compare PARENT.json CHANGE.json
      Applies the claim rule to two ledgers of the same host, one row per
      workload.

Standard library only. One child process runs at a time; the only threads
beyond the main one are the sharded engine's workers, at most 2 and never
more than the host's cores.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from statistics import median

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = BENCH / "build"
RESULTS = BENCH / "results"
EXE = BUILD / "mosaic_perf"
# After the build, a run must end within 180 s; leave room to report.
RUN_BUDGET_S = 170


def cores():
    return len(os.sched_getaffinity(0))


def child_env():
    """The caller's environment without the simulator's tuning knobs, with
    temporary files kept inside the build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MOSAIC_")}
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (spec, [w["name"] for w in spec["workloads"]],
            {m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def build():
    """Configures (once) and builds the Release driver; exits on failure."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(cores())])
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                     env=child_env(), cwd=ROOT)
            except OSError as e:
                log.write(f"{cmd[0]}: {e}\n")
                rc = 1
            if rc != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-25:]
                sys.stderr.write("benchmark build failed:\n" +
                                 "\n".join(tail) + "\n")
                sys.exit(1)


def run_child(args, log_name, deadline):
    """Runs mosaic_perf with @args, stderr to a log file. Returns
    (returncode or None on timeout, parsed last JSON line or None, cells
    started)."""
    logs = BUILD / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    with open(logs / log_name, "w") as err:
        proc = subprocess.Popen([str(EXE)] + args, stdout=subprocess.PIPE,
                                stderr=err, text=True, env=child_env(),
                                cwd=ROOT)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            out, rc = "", None
        finally:
            # Also on SIGTERM/SIGINT: never leave the child running.
            if proc.poll() is None:
                proc.kill()
                more, _ = proc.communicate()
                out = (out or "") + (more or "")
    lines = out.splitlines()
    started = sum(1 for line in lines if line.startswith("# cell "))
    doc = None
    if rc == 0 and lines and lines[-1].startswith("{"):
        doc = json.loads(lines[-1])
    return rc, doc, started


def e2e_metrics(doc):
    """End-to-end metrics of one `mosaic_perf run` document."""
    passes = doc["passes"]
    # Each cell's fastest pass, summed. Host noise only ever adds time,
    # and on the 2-worker engine it comes in bursts (one cell of a pass
    # 20-50% slow), which a median of three or four passes still lets
    # through: per-cell minima cut het_sharded's 10-seed spread from 6.1%
    # to 2.3%.
    cell_ns = [min(p["cell_ns"][i] for p in passes)
               for i in range(doc["cells"])]
    # fsum: exact whatever order the seed puts the cells in.
    ipcs = [math.fsum(instr / cycles for instr, cycles in cell)
            for cell in doc["sim"]["apps"]]
    return {
        "minstr_per_s": passes[0]["instructions"] / sum(cell_ns) * 1e3,
        "setup_s": median(doc["setup_ns"]) / 1e9,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024,
        "sim_ipc": math.fsum(ipcs) / len(ipcs),
    }


def engine_metrics(profile, n1_wall_ns):
    p = profile
    return {
        "engine.speedup_vs_n1": n1_wall_ns / p["wall_ns"],
        "engine.barrier_wait_share":
            1 - p["worker_busy_ns"] / p["parallel_capacity_ns"],
        "engine.sm_phase_s": p["sm_phase_ns"] / 1e9,
        "engine.control_phase_s": p["control_phase_ns"] / 1e9,
        "engine.sub_phase_s": p["sub_phase_ns"] / 1e9,
        "engine.exchange_s": p["exchange_ns"] / 1e9,
        "engine.host_ns_per_event": p["wall_ns"] / p["events"],
        "engine.epochs": p["epochs"],
        "engine.hub_occupancy": p["hub_busy_windows"] / p["epochs"],
    }


def sim_metrics(sim):
    """Simulated-clock per-layer metrics: ratios of summed counters,
    percentiles as the median across cells."""
    instr = sim["gpu.sm.instructions"]
    per_k = 1000 / instr
    mm_ops = sum(sim[k] for k in (
        "mm.pagesBacked", "mm.pagesReleased", "mm.regionsReserved",
        "mm.coalesceOps", "mm.splinterOps", "mm.migrations"))
    return {
        "gpu.mem_instr_share": sim["gpu.sm.memInstructions"] / instr,
        "gpu.far_fault_stalls": sim["gpu.sm.farFaultStalls"],
        "vm.l1_tlb_hit_rate":
            sim["vm.translation.l1Hits"] / sim["vm.translation.requests"],
        "vm.l2_tlb_hit_rate":
            (sim["vm.tlb.l2.base.hits"] + sim["vm.tlb.l2.large.hits"]) /
            (sim["vm.tlb.l2.base.accesses"] +
             sim["vm.tlb.l2.large.accesses"]),
        "vm.walks_per_kinstr": sim["vm.walker.walks"] * per_k,
        "vm.walk_latency_p50": median(sim["vm.walker.latency.p50"]),
        "vm.walk_latency_p95": median(sim["vm.walker.latency.p95"]),
        "vm.walker_queued_share":
            sim["vm.walker.queued"] / sim["vm.walker.walks"],
        "cache.l1_hit_rate": sim["cache.l1.hits"] / sim["cache.l1.accesses"],
        "cache.l2_hit_rate": sim["cache.l2.hits"] / sim["cache.l2.accesses"],
        "cache.l2_accesses_per_kinstr": sim["cache.l2.accesses"] * per_k,
        "dram.row_hit_rate":
            sim["dram.rowHits"] / (sim["dram.rowHits"] + sim["dram.rowMisses"]),
        "dram.latency_p50": median(sim["dram.latency.p50"]),
        "dram.latency_p95": median(sim["dram.latency.p95"]),
        "mm.ops_per_kinstr": mm_ops * per_k,
        "mm.bloat": sim["mm.peakAllocatedBytes"] / sim["sim.neededBytes"],
        "iobus.far_faults": sim["iobus.paging.farFaults"],
        "iobus.pcie_latency_p95": median(sim["iobus.pcie.latency.p95"]),
        "iobus.pcie_busy_share":
            sim["iobus.pcie.busBusyCycles"] / sim["sim.cycles"],
    }


# Simulated counters that are zero on some workloads by design, so they
# stay out of BENCHMARK.json; the ledger keeps them.
LEDGER_COUNTERS = ("mm.coalesceOps", "mm.splinterOps", "mm.compactions",
                   "mm.migrations", "dram.bulkCopies",
                   "mm.softGuaranteeViolations")


def host_layer_metrics(layers):
    ps = layers["ps_per_call"]
    return {
        "engine.dispatch_ns": ps["engine.dispatch"] / 1e3,
        "workload.stream_ns": ps["workload.stream"] / 1e3,
        "vm.translate_ns": ps["vm.translate"] / 1e3,
        "vm.pt_translate_ns": ps["vm.pt_translate"] / 1e3,
        "vm.walk_path_ns": ps["vm.walk_path"] / 1e3,
        "cache.access_ns": ps["cache.access"] / 1e3,
        "dram.request_ns": ps["dram.request"] / 1e3,
        "mm.back_page_ns": ps["mm.back_page"] / 1e3,
        "mm.reserve_region_us": ps["mm.reserve_region"] / 1e6,
        "mm.release_region_us": ps["mm.release_region"] / 1e6,
        # Per layer function, cost per call with spans on over spans off;
        # the median over functions, as each is a median over batches.
        "bench.trace_overhead": median(
            [ps[fn] / off for fn, off in
             layers["ps_per_call_untraced"].items() if off > 0]),
    }


def self_times(trace_path):
    """Self time of each phase span of a layer trace: its duration minus
    what its child batch spans cover."""
    events = json.loads(pathlib.Path(trace_path).read_text())["traceEvents"]
    child = {}
    for e in events:
        parent = e["args"].get("parent")
        if parent:
            child[parent] = child.get(parent, 0) + e["args"]["dur_ns"]
    return {e["name"]: (e["args"]["dur_ns"] - child.get(e["name"], 0)) / 1e9
            for e in events if e["cat"] == "phase"}


def measure(workload, seed, seconds, trace, smoke, deadline):
    """One run of @workload; with @trace, also the layer pass. Returns a
    record with correctness, metrics, and the raw figures."""
    tag = f"{workload}-{seed}" + ("-smoke" if smoke else "")
    extra = ["--smoke"] if smoke else []
    rec = {"workload": workload, "seed": seed, "errors": []}
    rc, doc, started = run_child(
        ["run", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds)] + extra, tag + "-run.log", deadline)
    if doc is None:
        why = "timed out" if rc is None else f"exited with {rc}"
        rec.update(correct=False, attempted=max(1, started),
                   failed=max(1, started), metrics={},
                   errors=[f"mosaic_perf run {why} (see "
                           f"benchmark/build/logs/{tag}-run.log)"])
        return rec

    errors = list(doc["failures"])
    failed = len(errors)
    digests = doc["passes"][0]["digests"]
    for i, p in enumerate(doc["passes"][1:], 1):
        bad = sum(a != b for a, b in zip(p["digests"], digests))
        if bad:
            failed += bad
            errors.append(f"pass {i}: {bad} cell digest(s) differ from pass 0")
    if "reference" in doc:
        bad = sum(a != b for a, b in zip(doc["reference"]["digests"], digests))
        if bad:
            failed += bad
            errors.append(f"{bad} cell digest(s) at N={doc['shards']} differ "
                          "from N=1")
    rec.update(attempted=doc["attempted"], digests=digests,
               metrics=e2e_metrics(doc), sim=sim_metrics(doc["sim"]),
               counters={k: doc["sim"][k] for k in LEDGER_COUNTERS},
               raw={k: doc[k] for k in ("cells", "shards", "setup_ns",
                                        "peak_rss_kb")},
               passes=[{k: p[k] for k in ("wall_ns", "instructions",
                                          "cell_ns")}
                       for p in doc["passes"]])

    if trace:
        traces = RESULTS / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{tag}.json"
        delays = ",".join(str(round(c))
                          for c in doc["sim"]["dram.latency.p50"])
        rc, layers, _ = run_child(
            ["layers", "--workload", workload, "--seed", str(seed),
             "--trace-out", str(trace_path), "--memory-delays", delays]
            + extra, tag + "-layers.log", deadline)
        if layers is None:
            why = "timed out" if rc is None else f"exited with {rc}"
            errors.append(f"mosaic_perf layers {why} (see "
                          f"benchmark/build/logs/{tag}-layers.log)")
            failed += 1
        else:
            # The checked cell, plus the probe cell at N=1 and N=2.
            rec["attempted"] += 3 if "probe" in layers else 1
            if layers["check_digest"] != digests[0] or layers["check_failure"]:
                failed += 1
                errors.append("cell 0 under the invariant checker: digest "
                              f"{layers['check_digest']} != {digests[0]} "
                              f"{layers['check_failure']}".rstrip())
            written = layers["trace_written"]
            if not written:
                errors.append(f"could not write {trace_path}")
            if "probe" in layers:
                probe = layers["probe"]
                if not probe["digests_equal"]:
                    failed += 1
                    errors.append("engine probe: N=2 digest differs from N=1")
                engine = engine_metrics(probe["engine"], probe["n1_wall_ns"])
            else:
                # One N=2 pass against the one N=1 pass: the same
                # estimator on both sides, whatever number of passes fit.
                engine = engine_metrics(doc["passes"][0]["engine"],
                                        doc["reference"]["wall_ns"])
            rec["layers"] = {**engine, **host_layer_metrics(layers),
                             **rec["sim"]}
            rec["layer_extra"] = {
                "mm.churn_us_per_event":
                    layers["ps_per_call"]["mm.churn"] / 1e6,
                "self_s": self_times(trace_path) if written else {},
                "trace": str(trace_path.relative_to(ROOT)),
            }
    rec.update(correct=failed == 0 and not errors, failed=failed,
               errors=errors)
    return rec


def print_metrics(metrics, spec):
    for name, m in spec.items():
        value = metrics.get(name)
        shown = "MISSING" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {m['unit']}")


def driver_mode(args, e2e, layer):
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    rec = measure(args.workload, args.seed, args.seconds, args.trace == 1,
                  False, deadline)
    spec = layer if args.trace else e2e
    metrics = rec.get("layers", {}) if args.trace else rec["metrics"]
    for e in rec["errors"]:
        print(f"error: {e}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: "
          f"{'ok' if rec['correct'] else 'INCORRECT'}")
    print_metrics(metrics, spec)
    correct = rec["correct"] and all(n in metrics for n in spec)
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {n: {"value": metrics[n], "unit": m["unit"]}
                    for n, m in spec.items() if n in metrics},
    }))
    return 0 if correct else 1


def smoke_mode(workloads, e2e, layer):
    build()
    t0 = time.monotonic()
    ok = True
    for w in workloads:
        rec = measure(w, 1, 0.0, True, True, time.monotonic() + RUN_BUDGET_S)
        metrics = {**rec["metrics"], **rec.get("layers", {})}
        print(f"{w}: {'ok' if rec['correct'] else 'INCORRECT'}")
        for e in rec["errors"]:
            print(f"  error: {e}")
        print_metrics(metrics, {**e2e, **layer})
        missing = [n for n in list(e2e) + list(layer) if n not in metrics]
        if missing:
            print(f"  missing metrics: {', '.join(missing)}")
        ok = ok and rec["correct"] and not missing
    print(f"smoke {'passed' if ok else 'FAILED'} in "
          f"{time.monotonic() - t0:.1f}s")
    return 0 if ok else 1


def cmake_cache():
    cache = {}
    path = BUILD / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def git(*args):
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT)] + list(args),
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def fingerprint():
    """Host and build identity. Only the host part names the ledger:
    the commit differs between the two sides of every comparison."""
    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")]))
    host = {"cpu": cpu, "nproc": cores(), "compiler": version,
            "build_type": build_type, "flags": flags,
            "kernel": platform.release()}
    fp_id = hashlib.sha1(json.dumps(host, sort_keys=True).encode()).hexdigest()
    status = git("status", "--porcelain", "--untracked-files=no")
    return {**host, "id": fp_id[:10],
            "commit": git("rev-parse", "--short=12", "HEAD") or "nogit",
            "dirty": bool(status), "loadavg": list(os.getloadavg())}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(reps, workloads, e2e):
    summary = {}
    for w in workloads:
        mine = [r for r in reps if r["workload"] == w and r["metrics"]]
        summary[w] = {}
        for name in e2e:
            values = [r["metrics"][name] for r in mine]
            if values:
                q1, q3 = quartiles(values)
                summary[w][name] = {"median": median(values), "q1": q1,
                                    "q3": q3, "n": len(values)}
    return summary


def ledger_mode(args, workloads, e2e, layer):
    build()
    fp = fingerprint()
    path = RESULTS / f"{fp['commit']}-{fp['id']}.json"
    reps = []
    if args.append and path.exists():
        old = json.loads(path.read_text())
        if old["seed"] != args.seed or old["seconds"] != args.seconds:
            sys.exit(f"{path}: recorded with another seed or run length")
        reps = old["reps"]
    first = 1 + max((r["rep"] for r in reps), default=-1)
    for r in range(first, first + args.reps):
        k = r % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            rec = measure(w, args.seed, args.seconds, False, False,
                          time.monotonic() + RUN_BUDGET_S)
            rec["rep"] = r
            reps.append(rec)
            m = rec["metrics"]
            print(f"rep {r} {w:12s} " + (
                " ".join(f"{n}={m[n]:.5g}" for n in e2e if n in m)
                if rec["correct"] else "INCORRECT: " + "; ".join(rec["errors"])),
                flush=True)
    traced = {}
    for w in workloads:
        rec = measure(w, args.seed, args.seconds, True, False,
                      time.monotonic() + RUN_BUDGET_S)
        traced[w] = rec
        print(f"traced {w:12s} {'ok' if rec['correct'] else 'INCORRECT'}",
              flush=True)

    problems = []
    for w in workloads:
        seen = {json.dumps(r.get("digests")) for r in reps
                if r["workload"] == w}
        seen.add(json.dumps(traced[w].get("digests")))
        if len(seen) != 1:
            problems.append(f"{w}: sim_digest differs between reps")
    problems += [f"{r['workload']} rep {r['rep']}: {e}" for r in reps
                 for e in r["errors"]]
    problems += [f"{w} traced: {e}" for w, r in traced.items()
                 for e in r["errors"]]

    summary = summarize(reps, workloads, e2e)
    doc = {
        "schema": 1, "fingerprint": fp, "seed": args.seed,
        "seconds": args.seconds, "workloads": workloads,
        "summary": summary,
        "sim_digest": {w: traced[w].get("digests") for w in workloads},
        "sim": {w: traced[w].get("sim", {}) for w in workloads},
        "layers": {w: traced[w].get("layers", {}) for w in workloads},
        "layer_extra": {w: traced[w].get("layer_extra", {})
                        for w in workloads},
        "counters": {w: traced[w].get("counters", {}) for w in workloads},
        "reps": reps, "problems": problems,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"\nhost {fp['cpu']} x{fp['nproc']}, {fp['compiler']}, "
          f"{fp['build_type']}; commit {fp['commit']}"
          f"{' (dirty)' if fp['dirty'] else ''}")
    for w in workloads:
        print(f"\n{w}: median [q1, q3] over reps")
        for name, m in e2e.items():
            s = summary[w].get(name)
            if s:
                print(f"  {name:32s} {s['median']:.6g} "
                      f"[{s['q1']:.6g}, {s['q3']:.6g}] {m['unit']} "
                      f"(n={s['n']})")
        print("  traced run:")
        print_metrics(traced[w].get("layers", {}), layer)
        for k, v in traced[w].get("counters", {}).items():
            print(f"  {k:32s} {v:>14d} count (ledger only)")
    for p in problems:
        print(f"problem: {p}")
    print(f"\nledger written to {path.relative_to(ROOT)}")
    return 1 if problems else 0


# A gain needs at least this many alternating parent/change pairs.
MIN_PAIRS = 10


def correct_reps(ledger, workload, name):
    """Rep number -> value of @name, over the reps of @workload that ran
    correctly."""
    return {r["rep"]: r["metrics"][name] for r in ledger["reps"]
            if r["workload"] == workload and r["correct"]
            and name in r["metrics"]}


def compare(a_path, b_path, e2e):
    """The claim rule. Simulated results must be identical. Per workload and
    end-to-end metric, over the reps that ran correctly: a regression is a
    median worse by more than the bound; a spread wider than the bound is
    unresolved unless every change rep beats every parent rep; a gain needs
    the change to win >= 9/10 of at least MIN_PAIRS paired reps and a
    median gap larger than the parent's quartile spread, and is unresolved
    with fewer pairs. A change with more failed reps or problems than the
    parent claims no gain."""
    a = json.loads(pathlib.Path(a_path).read_text())
    b = json.loads(pathlib.Path(b_path).read_text())
    if a["fingerprint"]["id"] != b["fingerprint"]["id"]:
        print("refusing: the ledgers come from different hosts or builds "
              f"({a['fingerprint']['id']} vs {b['fingerprint']['id']})")
        return 2
    if (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
        print("refusing: the ledgers use different seeds or run lengths")
        return 2
    failed = [sum(not r["correct"] for r in x["reps"]) for x in (a, b)]
    problems = [len(x["problems"]) for x in (a, b)]
    less_correct = failed[1] > failed[0] or problems[1] > problems[0]
    status = 0
    if less_correct:
        print(f"correctness: the change has {failed[1]} failed reps and "
              f"{problems[1]} problems, the parent {failed[0]} and "
              f"{problems[0]}; no gain counts")
        status = 1
    for w in a["workloads"]:
        row = []
        differs = [k for k in ("sim_digest", "sim", "counters")
                   if a.get(k, {}).get(w) != b.get(k, {}).get(w)]
        if differs:
            row.append("SIMULATED RESULT DIFFERS (" + ", ".join(differs) + ")")
            status = 1
        for name, m in e2e.items():
            ra, rb = correct_reps(a, w, name), correct_reps(b, w, name)
            if not ra or not rb:
                row.append(f"{name} missing")
                continue
            pa, pb = list(ra.values()), list(rb.values())
            pairs = [(ra[r], rb[r]) for r in ra if r in rb]
            sign = 1 if m["better"] == "higher" else -1
            ma, mb = median(pa), median(pb)
            qa1, qa3 = quartiles(pa)
            qb1, qb3 = quartiles(pb)
            wins = sum(sign * (y - x) > 0 for x, y in pairs)
            change = (mb - ma) / ma
            spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
            may_gain = len(pairs) >= MIN_PAIRS and not less_correct
            if sign * change < -m["bound"]:
                verdict = "REGRESSION"
                status = 1
            elif spread > m["bound"]:
                better_all = (min(pb) > max(pa) if sign > 0
                              else max(pb) < min(pa))
                verdict = "gain" if better_all and may_gain else "unresolved"
            elif sign * (mb - ma) > 0 and wins >= 0.9 * len(pairs) and \
                    abs(mb - ma) > qa3 - qa1:
                verdict = "gain" if may_gain else "unresolved"
            else:
                verdict = "no change"
            row.append(f"{name} {verdict} ({change:+.2%}, "
                       f"{wins}/{len(pairs)} wins)")
        print(f"{w:12s} " + "; ".join(row))
    return status


def main():
    # SIGTERM unwinds like Ctrl-C, so run_child reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec, workloads, e2e, layer = load_spec()
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare PARENT.json CHANGE.json")
        return compare(sys.argv[2], sys.argv[3], e2e)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--append", action="store_true",
                    help="add reps to this commit's existing ledger")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        return smoke_mode(workloads, e2e, layer)
    if args.workload:
        return driver_mode(args, e2e, layer)
    return ledger_mode(args, workloads, e2e, layer)


if __name__ == "__main__":
    sys.exit(main())
