"""Set-up time of one fresh process: import romlab, then load and validate a config.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG_JSON

Prints the seconds from before ``import romlab`` to the end of
``romlab validate``.  run.py starts it with the thread variables pinned.
"""
import contextlib
import io
import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
import romlab.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = romlab.cli.main(["validate", "--config", sys.argv[2]])
elapsed = perf_counter() - start
if code != 0:
    sys.exit(f"romlab validate exited with {code}")
print(repr(elapsed))
