"""Child processes of the benchmark; each runs with ``src`` on PYTHONPATH.

    child.py setup SCENARIO
        import eprlab.cli, load the scenario and build its model (the set-up cost).
    child.py traced SPANS_OUT SCENARIO OUT_DIR
        ``eprlab run`` with every probe in ``tracing.PROBES`` wrapped; writes the spans.
    child.py workers SCENARIO N REPEATS
        time the scenario's first row at workers 1 and 2; prints one JSON line.
"""

from __future__ import annotations

import sys


def _model(scenario):
    from eprlab import lhv
    if scenario.kind == "SPIN_CHSH":
        return lhv.unbounded_spin_model()
    if scenario.kind == "EPR_QUADRATURE":
        return lhv.quadrature_model(scenario.moments)
    return lhv.free_evolution_model(scenario.moments)


def setup(path: str) -> int:
    from eprlab import cli
    _model(cli.load_scenario(path))
    return 0


def traced(spans_out: str, path: str, out_dir: str) -> int:
    import tracing
    tracer = tracing.Tracer()
    from eprlab import cli, correlators, estimator
    absent = tracer.install({m.__name__: m for m in (cli, correlators, estimator)})
    try:
        return cli.main(["run", path, "--out-dir", out_dir])
    finally:
        tracer.dump(spans_out, absent)


def workers(path: str, n: str, repeats: str) -> int:
    import inspect
    import json
    import math
    import statistics
    import time

    from eprlab import cli, correlators, operators
    from eprlab.estimator import mc_estimate
    if "workers" not in inspect.signature(mc_estimate).parameters:
        print(json.dumps({"absent": True}))
        return 0
    scenario = cli.load_scenario(path)
    model = _model(scenario)
    make = {"SPIN_CHSH": lambda t: operators.UnitVector3(math.sin(t), 0.0, math.cos(t)),
            "EPR_QUADRATURE": correlators.QuadratureSetting,
            "FREE_EVOLUTION": correlators.TimeSetting}[scenario.kind]
    s1, s2 = (make(x) for x in scenario.setting_pairs[0])
    times: dict[int, list[float]] = {1: [], 2: []}
    estimates = set()
    for _ in range(int(repeats)):
        for w in (1, 2):
            start = time.perf_counter()
            est = mc_estimate(model, s1, s2, int(n), scenario.seed, workers=w)
            times[w].append(time.perf_counter() - start)
            estimates.add((est.mean, est.stderr))
    print(json.dumps({"w1_s": statistics.median(times[1]), "w2_s": statistics.median(times[2]),
                      "identical": len(estimates) == 1}))
    return 0


if __name__ == "__main__":
    command, *args = sys.argv[1:]
    sys.exit({"setup": setup, "traced": traced, "workers": workers}[command](*args))
