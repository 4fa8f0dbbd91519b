"""Monitoring goal-directed evaluation (the paper's §IX future work).

Because translated programs are trees of iterator nodes, monitoring is a
post-transformation pass: wrap the tree in transparent probes and watch
generation, backtracking, and failure as they happen.  Run:

    python examples/monitoring.py
"""

from repro.lang import JuniconInterpreter
from repro.monitor import Tracer


def trace_a_search() -> None:
    print("== watching a backtracking search ==")
    interp = JuniconInterpreter()
    tracer = Tracer()
    node = tracer.instrument(
        interp.expression("(a := 1 to 4) & (b := a to 4) & (a + b == 5) & [a, b]")
    )
    print("results:", list(node))

    counts = tracer.counts()
    print(
        f"events: {counts['produce']} productions, {counts['resume']} resumes "
        f"(backtracks), {counts['fail']} failures"
    )

    print("\nhot nodes (productions / resumes):")
    tally = {
        label: (len(kinds.get("produce", ())), len(kinds.get("resume", ())))
        for label, kinds in tracer.summary().items()
    }
    for label, (produced, resumed) in sorted(
        tally.items(), key=lambda kv: -kv[1][0]
    )[:5]:
        print(f"  {label:<18} {produced:>4} / {resumed:>4}")


def trace_a_failure() -> None:
    print("\n== diagnosing why an expression fails ==")
    interp = JuniconInterpreter()
    tracer = Tracer()
    node = tracer.instrument(interp.expression('(x := 1 to 3) & (x > 7) & "found"'))
    print("results:", list(node), "(the search found nothing)")
    print("\nfirst 14 trace lines:")
    print(tracer.transcript(limit=14))
    print("…the comparison node fails on every resume — the culprit.")


def live_monitoring() -> None:
    print("\n== live event sink (first production wins) ==")
    interp = JuniconInterpreter()
    interp.load("def noisy(n) { suspend 1 to n; }")

    hits = []

    def sink(event) -> None:
        if event.kind == "produce" and event.depth == 0:
            hits.append(event)

    tracer = Tracer(sink=sink)
    node = tracer.instrument(interp.expression("noisy(100)"))
    stepper = iter(node)
    first = next(stepper)
    print(f"first result seen live: {first}; root productions so far: {len(hits)}")


if __name__ == "__main__":
    trace_a_search()
    trace_a_failure()
    live_monitoring()
