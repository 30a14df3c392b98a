"""Golden output of the demos: every demos/0*.py script, byte for byte.

Each demo runs in a fresh interpreter with src/ on the path; its standard
output is compared with tests/data/demos_golden.txt.  After a deliberate
change of the output, regenerate the file with

    PYTHONPATH=src python tests/test_demos.py > tests/data/demos_golden.txt
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "data" / "demos_golden.txt"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return f"$ python demos/{script.name}\n{proc.stdout}"


def transcript():
    return "".join(_run(script) for script in DEMOS)


def test_demo_output_is_byte_identical():
    assert len(DEMOS) == 5
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(transcript(), end="")
