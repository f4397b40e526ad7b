import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _top_level_modules(*imports):
    """Top-level names in sys.modules of a fresh interpreter after the imports."""
    code = ("import json, sys\n" + "".join(f"import {name}\n" for name in imports)
            + "print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_the_runtime_loads_only_numpy_beyond_the_standard_library():
    # the runtime is numpy-only: the package, its command line and its
    # generators reach for no other installed package (scipy among them)
    bare = _top_level_modules()
    loaded = _top_level_modules("stochbellman", "stochbellman.cli", "stochbellman.generators")
    allowed = bare | set(sys.stdlib_module_names) | {"numpy", "stochbellman"}
    assert "stochbellman" in loaded and "numpy" in loaded
    assert loaded <= allowed, sorted(loaded - allowed)
