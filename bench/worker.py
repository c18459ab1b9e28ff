"""One round of one workload, in a fresh interpreter.

Started by run.py, never imported.  The interpreter imports ``adelic``
from the checkout's ``src/``, builds the weights (that is the set-up time),
then runs every operation of the round in order, recording when each
started and ended.  From its first line to the end of the operations it
samples the machine's speed (bench/refspeed.py).  Outputs are serialised
after the timed part, together with the speed samples and the certified
root sets to audit, and written as JSON to --result; run.py checks them
and scales the times.

    python3 bench/worker.py --workload NAME --seed N --mode run|traced|setup \
        --spawned WALLCLOCK --result PATH --out-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import refspeed


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "traced", "setup"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="wall clock (time.time) just before this process was started")
    ap.add_argument("--result", required=True)
    ap.add_argument("--out-dir", required=True)
    return ap.parse_args()


def main() -> int:
    args = _args()
    sampler = refspeed.Sampler()
    sampler.start()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import adelic

    weights = {"std": adelic.std_weight(), "trivial": adelic.trivial_weight(),
               "ex5": adelic.ex5_weight()}
    setup_s = time.time() - args.spawned
    setup_end = time.perf_counter()
    setup = [setup_end - setup_s, setup_end, setup_s]
    if not os.path.abspath(adelic.__file__).startswith(src + os.sep):
        print("adelic was imported from %s, not from %s" % (adelic.__file__, src), file=sys.stderr)
        return 3
    if args.mode == "setup":
        sampler.stop()
        _write(args.result, {"setup": setup, "samples": sampler.samples})
        return 0

    import adelic.cli
    import workloads
    from tracer import Tracer

    spec = workloads.build(args.workload, args.seed)
    divisors: dict[str, object] = {}

    def divisor(iid):
        Z = divisors.get(iid)
        if Z is None:
            inp = spec["inputs"][iid]
            Z = divisors[iid] = adelic.divisor_from_poly(inp["coeffs"], inp["inf_mult"])
        return Z

    def run_op(k, op):
        kind = op["kind"]
        if kind == "equidist":
            path = os.path.join(args.out_dir, "equidist-%s-%d-%d.json"
                                % (args.workload, args.seed, k))
            return adelic.cli.main(op["argv"] + ["--out", path]), path
        if kind == "arch_row":
            Z = divisor(op["input"])
            return {w: (adelic.fekete_sum(Z, weights[w], adelic.ARCH),
                        adelic.fekete_sum_arch_identity(Z, weights[w]),
                        adelic.mahler_g(Z, weights[w], adelic.ARCH))
                    for w in op["weights"]}
        if kind == "global_fekete":
            return adelic.global_fekete(divisor(op["input"]), weights[op["weight"]],
                                        tail_eps=op["tail_eps"])
        if kind == "height":
            return adelic.height(divisor(op["input"]), weights[op["weight"]],
                                 tail_eps=op["tail_eps"])
        raise ValueError("unknown operation kind %r" % kind)

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    results = []
    t_start = time.perf_counter()
    for k, op in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.current_op = k
        t = time.perf_counter()
        out = run_op(k, op)
        results.append(((t, time.perf_counter()), out))
    wall_s = time.perf_counter() - t_start
    sampler.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    ops = []
    for op, (span, out) in zip(spec["ops"], results):
        kind = op["kind"]
        if kind == "equidist":
            rc, path = out
            rows = None
            if rc == 0:
                with open(path) as fh:
                    rows = json.load(fh)["rows"]
            out = {"returncode": rc, "rows": rows}
        elif kind == "arch_row":
            out = {w: {"fekete": a.to_json(), "identity": b.to_json(), "mahler": c.to_json()}
                   for w, (a, b, c) in out.items()}
        else:
            out = out.to_json()
        ops.append({"id": op["id"], "span": span, "output": out})

    # the root sets the round certified, looked up again in the cache; the
    # key must match arch_support's call, which passes the 1e-13 tolerance
    certified = adelic.roots.certified_roots
    audits = []
    for iid in spec["audit"]:
        inp = spec["inputs"][iid]
        Z = adelic.divisor_from_poly(inp["coeffs"], inp["inf_mult"])
        for f, _ in Z.squarefree_factors:
            misses = certified.cache_info().misses
            disks = certified(f, 1e-13)
            audits.append({"input": iid, "coeffs": list(f.coeffs),
                           "cached": certified.cache_info().misses == misses,
                           "disks": [[z.real, z.imag, r] for z, r in disks]})

    result = {"setup": setup, "wall_s": wall_s, "peak_rss_kb": peak_kb,
              "samples": sampler.samples, "ops": ops, "audits": audits}
    if tracer is not None:
        result["per_layer"] = tracer.per_layer()
        with open(os.path.join(args.out_dir, "trace-%s-%d.json" % (args.workload, args.seed)),
                  "w") as fh:
            json.dump(tracer.span_table(), fh, separators=(",", ":"))
    _write(args.result, result)
    return 0


def _write(path: str, obj: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
