"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` as ``python worker.py <checkout> <workload> <seed>
<mode>`` with ``PYTHONPATH`` pointing at the checkout's ``src``. Modes:

* ``setup``: import the library, build the workload's groups, exit;
* ``run``: set up, run the timed phase, check the outputs;
* ``traced``: the same as ``run`` with the layer tracer installed before
  set-up and removed before the checks, and without the reference loops of
  ``pace.py``.

Prints one JSON object as its last line of standard output. ``setup_end``
is read from the system-wide monotonic clock, so the parent can subtract
the moment it started this process and include interpreter start-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    root, workload_name, seed, mode = Path(argv[0]), argv[1], int(argv[2]), argv[3]
    import subembed as se

    source = Path(se.__file__).resolve()
    if root.resolve() / "src" not in source.parents:
        print(f"subembed was imported from {source}, not from {root}/src", file=sys.stderr)
        return 2

    from layertrace import LayerTracer
    from pace import SpeedMeter
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    tracer = None
    if mode == "traced":
        tracer = LayerTracer()
        tracer.install()
    workload.setup(se)
    out = {"setup_end": time.monotonic()}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    meter = SpeedMeter(enabled=mode != "traced")
    result = workload.run(se, seed, meter)
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
        out["distinct"] = tracer.distinct_counts()
        out["spans"] = write_spans(root, workload_name, seed, tracer)
    failed = workload.check(se, result, seed)
    out.update(
        wall_s=meter.wall_s,
        wall_ref_s=meter.wall_ref_s,
        ref_loops=len(meter.loops),
        ops=result["ops"],
        failed=failed,
        latencies_ms=[x * 1000.0 for x in result.get("latencies", [])],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        repeat_share=result.get("repeat_share", 0.0),
    )
    print(json.dumps(out))
    return 0


def write_spans(root: Path, workload_name: str, seed: int, tracer) -> str:
    """Write the recorded spans under ``.bench_out`` in the checkout."""
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload_name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "fields": ["name", "start_s", "end_s", "parent"],
                "names": tracer.names,
                "spans": tracer.spans,
            },
            handle,
        )
    return str(path.relative_to(root))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
