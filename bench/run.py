"""Benchmark of the adelic report pipeline: four workloads, checked outputs.

One run measures one workload for --seconds seconds, in whole rounds.  A
round runs every operation of the workload once, in a fresh interpreter
(bench/worker.py), so every process-wide cache starts empty as it does for
a user's command.  After the rounds, every output is checked against
values computed apart from the program (bench/oracles.py, bench/checks.py)
and the certified root sets are audited.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run alternates untraced and traced rounds and reports the per-layer
metrics from the traced ones, with trace.overhead_s.

    python3 bench/run.py --workload structured --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --compare                  # two sets of ten runs, agreement table
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import refspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WALL_LIMIT = 175.0            # a run must end within 180 s
SETUP_SAMPLES = 3
COMPARE_RUNS = 10             # runs per set in compare mode

END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    # at most two threads: the interpreter's and nothing from BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker to completion and return its result."""
    os.makedirs(OUT_DIR, exist_ok=True)
    result = os.path.join(OUT_DIR, "round-%s-%d-%s.json" % (workload, seed, mode))
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--result", result, "--out-dir", OUT_DIR]
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise BenchError("no time left for another round")
    spawned = time.time()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=_worker_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s round of %s did not finish in time" % (mode, workload))
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError("worker exited with %d: %s" % (proc.returncode, " | ".join(tail)))
    with open(result) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checking


class Checker:
    """Oracles for one workload and seed, and the verdict on every output."""

    def __init__(self, workload: str, seed: int):
        import workloads

        self.spec = workloads.build(workload, seed)
        self._oracles: dict = {}
        self._ex5 = None
        self._verdicts: dict[tuple[str, str], list[str]] = {}

    def oracle(self, iid: str):
        import checks
        import oracles

        o = self._oracles.get(iid)
        if o is None:
            inp = self.spec["inputs"][iid]
            if inp["form"][0] == "rational" and self._ex5 is None:
                self._ex5 = oracles.Ex5Oracle()
            o = self._oracles[iid] = checks.InputOracle(inp, self._ex5)
        return o

    def problems(self, op: dict, output) -> list[str]:
        """Problems with one output; identical outputs are checked once."""
        key = (op["id"], json.dumps(output, sort_keys=True))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(op, output)
        return self._verdicts[key]

    def _check(self, op: dict, out) -> list[str]:
        import checks

        kind = op["kind"]
        what = op["id"]
        if kind == "equidist":
            if out["returncode"] != 0:
                return ["%s: exit status %d" % (what, out["returncode"])]
            if len(out["rows"]) != len(op["rows"]):
                return ["%s: %d rows, want %d" % (what, len(out["rows"]), len(op["rows"]))]
            probs = []
            for row, iid in zip(out["rows"], op["rows"]):
                probs += checks.check_report(self.oracle(iid), op["weight"], row,
                                             "%s row n=%s" % (what, row["n"]), op["tail_eps"])
            return probs
        if kind == "arch_row":
            o = self.oracle(op["input"])
            probs = []
            for w, vals in out.items():
                probs += checks.check_arch_values(o, w, vals["fekete"], vals["mahler"],
                                                  "%s %s" % (what, w), vals["identity"])
            return probs
        o = self.oracle(op["input"])
        if kind == "global_fekete":
            return checks.check_report(o, op["weight"], out, what, op["tail_eps"])
        if kind == "height":
            return checks.check_height(o, op["weight"], out, what, op["tail_eps"])
        raise BenchError("unknown operation kind %r" % kind)

    def audit(self, a: dict) -> tuple[int, list[str]]:
        """(disks outside every oracle root, problems other than that)."""
        import checks
        import workloads

        inp = self.spec["inputs"][a["input"]]
        probs = []
        if a["coeffs"] != workloads.primitive(inp["coeffs"]):
            probs.append("audit %s: certified a factor, not the whole polynomial" % a["input"])
        if not a["cached"]:
            probs.append("audit %s: root set was not the one the round certified" % a["input"])
        if len(a["disks"]) != len(a["coeffs"]) - 1:
            probs.append("audit %s: %d disks for degree %d"
                         % (a["input"], len(a["disks"]), len(a["coeffs"]) - 1))
        wide = checks.wide_disks(a["disks"])
        if wide:
            probs.append("audit %s: %d disks have a radius above %g"
                         % (a["input"], wide, checks.RADIUS_CAP))
        outside = checks.audit_disks(a["disks"], self.oracle(a["input"]).roots())
        return outside, probs


# ---------------------------------------------------------------------------
# one run


def _spans(r: dict) -> list:
    return [o["span"] for o in r["ops"]]


def op_times(r: dict) -> list[float]:
    """A round's operation times at the machine's nominal speed."""
    return [refspeed.scaled(a, b, r["samples"]) for a, b in _spans(r)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    deadline = time.monotonic() + WALL_LIMIT
    t0 = time.monotonic()
    rounds: list[tuple[str, dict]] = []
    modes = ("run", "traced") if trace else ("run",)
    # the per-layer metrics need no pooling: a traced run makes one pair
    min_rounds = 1 if trace else workloads.MIN_ROUNDS[workload]
    for k in itertools.count(1):
        for mode in modes:
            rounds.append((mode, spawn(workload, seed, mode, deadline)))
        if time.monotonic() - t0 >= seconds and k >= min_rounds:
            break
    starts = [r for mode, r in rounds if mode == "run"]
    if not trace:
        while len(starts) < SETUP_SAMPLES:
            starts.append(spawn(workload, seed, "setup", deadline))

    checker = Checker(workload, seed)
    ops_by_id = {op["id"]: op for op in checker.spec["ops"]}
    attempted = failed = 0
    unexpected: list[str] = []
    failures: list[str] = []
    outside_by_round = []
    for mode, r in rounds:
        for res in r["ops"]:
            op = ops_by_id[res["id"]]
            attempted += 1
            probs = checker.problems(op, res["output"])
            if probs:
                failed += 1
                failures.append(probs[0])
                allowed = op.get("allowed", ())
                unexpected += [p for p in probs
                               if not any(all(w in p for w in words) for words in allowed)]
        outside_total = 0
        for a in r["audits"]:
            attempted += 1
            outside, probs = checker.audit(a)
            outside_total += outside
            if outside or probs:
                failed += 1
                failures.append("audit %s: %d of %d disks contain no oracle root"
                                % (a["input"], outside, len(a["disks"])))
            unexpected += probs
        outside_by_round.append((mode, outside_total))

    summary = {"rounds": len(rounds), "attempted": attempted, "failed": failed,
               "failures": sorted(set(failures)), "unexpected": unexpected}
    runs = [r for mode, r in rounds if mode == "run"]
    if not trace:
        durations = [t for r in runs for t in op_times(r)]
        setups = [refspeed.scaled(r["setup"][0], r["setup"][1], r["samples"]) for r in starts]
        metrics = {
            "wall_s": statistics.median([sum(op_times(r)) for r in runs]),
            "op_p50_s": statistics.median(durations),
            "peak_rss_mb": statistics.median([r["peak_rss_kb"] / 1024.0 for r in runs]),
            "setup_s": statistics.median(setups),
        }
        summary["samples"] = {"wall_s": len(runs), "op_p50_s": len(durations),
                              "peak_rss_mb": len(runs), "setup_s": len(setups)}
        speeds = [refspeed.NOMINAL_S / d for r in starts for _, d in r["samples"]]
        summary["measured"] = {
            "wall_s": statistics.median([r["wall_s"] for r in runs]),
            "op_p50_s": statistics.median([b - a for r in runs for a, b in _spans(r)]),
            "setup_s": statistics.median([r["setup"][2] for r in starts]),
            "speed_q1_q3": statistics.quantiles(speeds, n=4)[::2],
        }
        units = dict(END_TO_END)
    else:
        from tracer import PER_LAYER

        traced = [r for mode, r in rounds if mode == "traced"]
        digits = 0
        for iid in checker.spec["inputs"]:
            ds = checker.oracle(iid).dstar
            digits += len(str(ds.numerator)) + len(str(ds.denominator))
        metrics = {}
        for name, _ in PER_LAYER:
            if name == "roots.disks_outside":
                vals = [n for mode, n in outside_by_round if mode == "traced"]
            elif name == "exact.dstar_digits":
                vals = [digits]
            elif name == "trace.overhead_s":
                vals = [statistics.median([sum(op_times(r)) for r in traced])
                        - statistics.median([sum(op_times(r)) for r in runs])]
            else:
                vals = [r["per_layer"][name] for r in traced]
            metrics[name] = statistics.median(vals)
        summary["samples"] = {"traced_rounds": len(traced), "untraced_rounds": len(runs)}
        units = dict(PER_LAYER)
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "summary": summary,
    }


# ---------------------------------------------------------------------------
# compare mode


def _bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench, {m["name"]: m for m in bench["end_to_end"]}


def compare(first_seed: int, seconds: int) -> int:
    """Two sets of runs of the same code on every workload, seeds
    first_seed.., alternating which set goes first.  For each workload and
    end-to-end metric: each set's median and quartiles, the spread
    (quartile distance over median, for information), and whether the
    second set's median is worse than the first's by no more than the
    metric's bound.  The failed share must be the same in every run."""
    import workloads

    _, bounds = _bounds()
    os.makedirs(OUT_DIR, exist_ok=True)
    data = {w: ([], []) for w in workloads.WORKLOADS}
    for w in workloads.WORKLOADS:
        for k in range(COMPARE_RUNS):
            seed = first_seed + k
            for s in ((0, 1) if k % 2 == 0 else (1, 0)):
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                t = time.monotonic()
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, timeout=200)
                took = time.monotonic() - t
                if proc.returncode != 0:
                    print("%s seed %d set %d failed: %s" % (w, seed, s, proc.stderr.decode()[-500:]))
                    return 2
                res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
                data[w][s].append(res)
                print("%s seed %d set %d (%.1f s): %s" % (w, seed, s, took, json.dumps(res)),
                      flush=True)
    ok = True
    table = []
    for w, sets in data.items():
        shares = {(r["failed"], r["attempted"]) for st in sets for r in st}
        same_share = len({f / a for f, a in shares}) == 1
        ok &= same_share and all(r["correct"] for st in sets for r in st)
        print("\n%s: failed share %s (%s)" % (w, sorted(shares), "same" if same_share else "DIFFERS"))
        for name, m in bounds.items():
            line = {"workload": w, "metric": name, "bound": m["bound"]}
            for s, st in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in st]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                line["set%d" % s] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
            a, b = line["set0"]["median"], line["set1"]["median"]
            line["drift"] = (b - a) / a if m["better"] == "lower" else (a - b) / a
            line["ok"] = line["drift"] <= m["bound"]
            ok &= line["ok"]
            table.append(line)
            cells = "  ".join("set%d median %.6g q1 %.6g q3 %.6g spread %.4f"
                              % (s, line["set%d" % s]["median"], line["set%d" % s]["q1"],
                                 line["set%d" % s]["q3"], line["set%d" % s]["spread"])
                              for s in range(2))
            print("  %-12s bound %.2f  %s  drift %+.4f  %s" % (
                name, m["bound"], cells, line["drift"], "ok" if line["ok"] else "NOT WITHIN BOUND"))
    with open(os.path.join(OUT_DIR, "compare.json"), "w") as fh:
        json.dump({"table": table, "runs": data}, fh, indent=1)
    print("\nagreement: %s" % ("all within bounds" if ok else "NOT all within bounds"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", action="store_true",
                    help="run two sets of runs on every workload and report their agreement")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    if not os.path.isfile(os.path.join(ROOT, "src", "adelic", "__init__.py")):
        print("no adelic sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    bench, _ = _bounds()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    import workloads

    if args.compare:
        return compare(args.seed, int(seconds))
    if args.workload not in workloads.WORKLOADS:
        print("--workload must be one of %s" % ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    try:
        res = run(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1
    summary = res.pop("summary")
    print("%s seed %d: %d rounds, %d operations attempted, %d failed"
          % (args.workload, args.seed, summary["rounds"], res["attempted"], res["failed"]))
    for f in summary["failures"]:
        print("  failed: %s" % f)
    for p in summary["unexpected"][:20]:
        print("  UNEXPECTED: %s" % p)
    for name, m in res["metrics"].items():
        print("  %-32s %.6g %s" % (name, m["value"], m["unit"]))
    print("  samples: %s" % json.dumps(summary["samples"]))
    if "measured" in summary:
        print("  as measured, before scaling to the nominal speed: %s"
              % json.dumps(summary["measured"]))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
