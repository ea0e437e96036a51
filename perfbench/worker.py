"""One workload, run in a fresh single-threaded process by run.py.

An operation verifies one program through the public calls that
`maskcheck check` makes: `parse`, then `pm_check` or `qms_compute`, then
`report_to_json`. A round runs every operation of the workload once,
and rounds repeat until the measured time reaches --seconds. Each round
renames every variable with a fresh prefix of fixed width, so no round
finds the expressions of an earlier one in maskcheck's process-wide
caches and each costs what a fresh `maskcheck check` would; outputs are
compared to the answers after the names are stripped again. Answers
are checked outside the timed region.

Prints one JSON object on its last line: setup_s (process start, taken
by the parent just before it started this process, to imports done and
inputs generated), and either the end-to-end figures or, with
--trace 1, the per-layer table of the traced rounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="parent's time.monotonic() before the spawn")
    ap.add_argument("--solver", default=None)
    ap.add_argument("--spans", default=None, help="file for traced spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import maskcheck as mc
    from workloads import WORKLOADS, cases_for

    workload = WORKLOADS[args.workload]
    cases = cases_for(args.workload, args.seed)
    configs = {
        case.bits: mc.EngineConfig(mc.make_domain(case.bits, case.poly),
                                   engine=workload.engine, jobs=1,
                                   solver_cmd=args.solver)
        for case in cases}
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import reference
    check_name = "qms_compute" if workload.qms else "pm_check"
    tracer = None

    def run_round(index):
        prefix = f"w{index:04d}_"
        texts = [case.prog.text(prefix) for case in cases]
        outputs = []
        # Earlier rounds leave their expressions in maskcheck's caches;
        # frozen, they no longer make each garbage collection slower.
        gc.collect()
        gc.freeze()
        started = time.perf_counter()
        for n, (case, text) in enumerate(zip(cases, texts)):
            if tracer is not None:
                tracer.op = index * len(cases) + n
            # looked up per call so that the tracer's wrappers are used
            try:
                report = getattr(mc, check_name)(mc.parse(text),
                                                  configs[case.bits])
                outputs.append(mc.report_to_json(report))
            except Exception as err:  # an operation that raises fails
                outputs.append(err)
        return time.perf_counter() - started, prefix, outputs

    answers, evaluators = {}, {}
    attempted = failed = 0
    wrong = []

    def check(prefix, outputs):
        nonlocal attempted, failed
        if not evaluators:
            for i, case in enumerate(cases):
                evaluators[i] = reference.Evaluator(case.prog, case.bits,
                                                    case.poly)
                if case.leaks is None:
                    answers[i] = reference.exhaustive(case.prog, case.bits,
                                                      case.poly)
        for i, (case, out) in enumerate(zip(cases, outputs)):
            attempted += 1
            if isinstance(out, Exception):
                failed += 1
                print(f"{case.prog.name}: raised {type(out).__name__}: "
                      f"{out}", file=sys.stderr)
                continue
            errors = reference.check_report(
                case, json.loads(out), prefix, workload.qms,
                answers.get(i), evaluators[i])
            if errors:
                failed += 1
                if tuple(errors) != case.known_fault:
                    wrong.extend(errors)

    rounds = 0
    peak_mb = 0.0

    def measure(budget, times, on_round=None):
        """Whole rounds while the next one is expected to fit the budget."""
        nonlocal rounds, peak_mb
        while not times or sum(times) + statistics.median(times) <= budget:
            elapsed, prefix, outputs = run_round(rounds)
            times.append(elapsed)
            rounds += 1
            if on_round is not None:
                on_round()
            if rounds == 1:
                peak_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            check(prefix, outputs)

    plain: list[float] = []
    result = {"setup_s": setup_s}
    if not args.trace:
        measure(args.seconds, plain)
        result["metrics"] = {"verify_s": statistics.median(plain),
                             "peak_rss_mb": peak_mb}
    else:
        import tracing
        measure(args.seconds / 2, plain)
        tracer = tracing.Tracer()
        tracer.install()
        traced, tables = [], []

        def on_round():
            tables.append(tracing.layer_metrics(tracer.take()))

        measure(args.seconds / 2, traced, on_round)
        tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        metrics = {k: statistics.median(t[k] for t in tables)
                   for k in tables[0]}
        metrics["trace.verify_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        result["metrics"] = metrics
    for line in wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    result.update(correct=not wrong, attempted=attempted, failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
