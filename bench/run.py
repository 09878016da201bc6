"""Entry point named by ``BENCHMARK.json``: ``python3 bench/run.py ...``.

Makes the benchmark package and the program under test importable from a
bare checkout, pins the two process-wide settings of the fixed
configuration, then hands over to :mod:`bench.cli`.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# String hashing is randomised per process, and the program's speed depends
# on it: the same seed ran query_ref at 8.7-9.2 or at 11.0-11.3 ops/s
# according to PYTHONHASHSEED alone (bench/README.md, "Findings").  It must
# be set before the interpreter starts, hence the re-exec.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

sys.path[:0] = [str(ROOT), str(ROOT / "src")]
os.environ["REPRO_KERNELS"] = "python"  # read by repro.kernels at import

from bench.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
