"""One benchmark process: set up a workload's inputs and, unless asked only
to set up, run one pass of its ops.

Each pass is a fresh interpreter, so the oracle's ``lru_cache``s and every
other piece of process-wide state start cold, as for a ``degenkit`` command.
The last line of stdout is a JSON object; ``run.py`` reads it.

    python3 bench/child.py --workload p1_grid --seed 1 --mode pass \
        --trace 0 --workdir .bench_out/work
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_engine():
    """Put the checkout's ``src`` first on the path and import degenkit from it."""
    src = ROOT / "src"
    if not (src / "degenkit" / "__init__.py").is_file():
        raise SystemExit("bench: no degenkit sources under %s" % src)
    sys.path.insert(0, str(src))
    import degenkit

    if Path(degenkit.__file__).resolve().parent != (src / "degenkit").resolve():
        raise SystemExit("bench: imported degenkit from %s" % degenkit.__file__)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="where the traced pass writes its spans")
    args = parser.parse_args(argv)

    import_engine()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hostprobe
    import workloads

    inputs = workloads.setup(args.workload, args.seed, args.workdir, ROOT)
    out = {"t_ready": time.monotonic(), "setup_probe_s": hostprobe.reading()}
    if args.mode == "pass":
        tracer = probe = None
        begin_op = lambda op_id: None  # noqa: E731
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            begin_op = tracer.begin_op
        else:
            probe = hostprobe.HostProbe()
            probe.start()
        records = workloads.run(args.workload, inputs, begin_op, probe)
        if probe is not None:
            probe.stop()
            for record in records:
                record["probe_s"] = probe.around(*record["span"])
            out["probe_ms"] = [dt * 1000.0 for _, dt in probe.samples]
        out["ops"] = records
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.layer_metrics()
            out["spans"] = tracer.span_summary()
            for i, record in enumerate(records):
                record["counts"] = dict(tracer.op_counts.get(i, {}))
            if args.spans:
                tracer.write_spans(args.spans)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
