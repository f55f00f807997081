"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py SPEC.json {setup|verify|pass|trace} [SPANS_OUT]

`setup` imports scar, loads the workload's inputs and stops. `verify` then
solves and checks the workload's tables (`checks.verify`). `pass` instead runs
the workload's commands through `scar.cli.main` with stdout captured in
memory, reads the peak RSS, then checks the outputs. `trace` is `pass` with
the tracer installed before the inputs are loaded. The result is one JSON line
on stdout; `ready` is CLOCK_MONOTONIC at the end of set-up, which the parent
compares with its own reading taken just before it started this process.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(spec_path, mode, spans_out=None):
    sys.path.insert(0, str(SRC))  # bench/ is already first, as the script's directory
    import scar
    import scar.cli
    from scar.graph import parse_graph

    if Path(scar.__file__).resolve().parent != SRC / "scar":
        raise ImportError(f"scar imported from {scar.__file__}, not from {SRC}")
    tracer = None
    if mode == "trace":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    spec = json.loads(Path(spec_path).read_text())
    for g in spec["graphs"]:
        parse_graph(Path(g["path"]).read_text())
    ready = time.monotonic()
    if mode == "setup":
        return {"ready": ready}
    if mode == "verify":
        from checks import verify
        return {"ready": ready, "errors": verify(spec)}

    outputs, codes, wall = [], [], 0.0
    for argv in spec["commands"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = scar.cli.main(argv)
            wall += time.perf_counter() - start
        outputs.append(buf.getvalue())
        codes.append(code)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import check
    layer = None
    if tracer is not None:
        layer = tracer.metrics()
        if spans_out:
            with open(spans_out, "w") as f:
                for name, start, end, parent in tracer.spans:
                    f.write(json.dumps([name, start, end, parent]) + "\n")
    attempted, failed, errors = check(spec, outputs, codes)
    digest = hashlib.sha256("\0".join(outputs).encode()).hexdigest()
    return {"ready": ready, "wall_s": wall, "rss_mb": rss_mb, "attempted": attempted,
            "failed": failed, "errors": errors, "stdout_sha256": digest, "layer": layer}


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:])))
