import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_the_timed_import_loads_neither_an_executor_nor_logging():
    # perfbench's setup_s times this import line in a fresh interpreter;
    # concurrent.futures loads logging, about 5 ms of it, so
    # pde.simulate_control imports the executor only when it runs
    code = ("import sys\n"
            "import numpy, gtap, gtap.cli, gtap.disorder, gtap.cascades\n"
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
