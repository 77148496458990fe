"""Run one chemobranch CLI invocation in a fresh interpreter and time it.

Usage: child.py MODE RESULT_JSON CLI_ARG...

MODE is ``setup`` (stop once the runner could start), ``run`` (untraced) or
``trace`` (layer spans on).  Set-up is what a user pays before any work:
interpreter start, imports, config load and the ModelParams/Kernel build.
The run is ``cli.main`` itself.  The result JSON carries ``t_ready`` on the
system-wide monotonic clock (CLOCK_MONOTONIC on Linux), so the parent can
take set-up time from the moment it spawned this process.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    mode, result_path, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    import numpy
    import scipy
    import chemobranch
    from chemobranch import cli
    from chemobranch.config import ExperimentConfig

    import spans

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(chemobranch.__file__).resolve().parent.parent != src:
        sys.exit(f"chemobranch imported from {chemobranch.__file__}, "
                 f"not from {src}")

    rec = spans.Recorder()
    spans.instrument(rec, trace=mode == "trace")
    cfg = ExperimentConfig.from_file(argv[argv.index("--config") + 1])
    cfg.model_params().make_kernel()
    t_ready = time.monotonic()
    base_kib = _maxrss_kib()
    doc = {"t_ready": t_ready, "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    if mode != "setup":
        code, error = None, None
        try:
            if mode == "trace":
                with rec.span("cli"):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
        except Exception:
            error = traceback.format_exc()
        run_s = time.monotonic() - t_ready
        doc.update(exit_code=code, error=error, run_s=run_s,
                   rss_mib=(_maxrss_kib() - base_kib) / 1024.0,
                   counts=rec.counters(), spans=rec.spans)
    result_path.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
