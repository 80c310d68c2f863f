"""The benchmark harness under bench/ still imports against the package.

Tier-1 does not collect bench/, so without this check an API removal that
breaks the harness would surface only when the benchmark runs. The same
subprocess installs the harness's tracer, so a renamed or deleted function
that the tracer patches fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_modules_import():
    # the same sys.path as bench/test_bench.py, in a fresh interpreter so
    # the harness's top-level module names stay out of this process
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]; "
        "import inputs, tracing, workloads; "
        "tracer = tracing.Tracer(); tracer.install(); tracer.remove(); "
        "sys.exit('absent tracer targets: %s' % tracer.absent if tracer.absent else 0)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
