"""Golden transcript of the command line: every README command, byte for byte.

Each command runs in-process through `main()`; its standard output and exit
code are compared with tests/data/cli_golden.txt.  Every command line of the
README's sh blocks must be one of them.  After a deliberate change of the
output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.txt
"""

import contextlib
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys

from nilnov.cli import main

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.txt"

# paths are relative to the repository root
COMMANDS = [
    "collect demos/data/heis.pcg 'b a'",
    "collect demos/data/f23.pcg 'b^1000 a^1000'",
    "lcs demos/data/heis.pcg --class 2",
    "refine demos/data/heis.pcg",
    "order demos/data/heis.pcg c a",
    "order demos/data/heis.pcg a b",
    "order demos/data/heis.pcg a b --char tests/data/chi_h3_b.mchar",
    "fit-char --rank 2 '0,1; 1,0; 1,1'",
    "ring-mul demos/data/heis.pcg --field F2 '1 + a' '1 + a'",
    "nov-invert --group demos/data/z.pcg --char demos/data/chi_z.mchar '1 - t' --frontier 5",
    "expand --group demos/data/heis.pcg --char demos/data/chi_h3.mchar"
    " '(1 - (1 - c)^-1 a)^-1' --frontier 3,4",
    "expand --group demos/data/f23.pcg --char demos/data/chi_f23.mchar"
    " '(1 - a c)^-1' --frontier 3,3,3",
    "nov-invert --group demos/data/f23.pcg --char demos/data/chi_f23.mchar"
    " '1 - a c' --frontier 3,3,3",
    "fox demos/data/torus.fpg --quotient c1",
    "fox demos/data/bs12.fpg",
    "nq demos/data/f2.fpg --class 2",
    "nq demos/data/mapping_torus.fpg",
    "betti demos/data/bs12.fpg --field F2",
    "nov-h demos/data/bs12.fpg --char demos/data/chi_z.mchar --degree 1 --frontier 6 --sweep",
    "nov-h demos/data/parafree.fpg --char demos/data/chi_parafree_c2.mchar"
    " --quotient c2 --frontier 2 --sweep",
    "nov-h demos/data/torus.fpg --char demos/data/chi_torus.mchar --quotient self"
    " --degree 2 --frontier 6 --entries projected --sweep",
    "theorem-f demos/data/torus.fpg --quotient self --char demos/data/chi_torus.mchar -d 2",
    "theorem-f demos/data/f2.fpg --char demos/data/chi_torus.mchar",
    "euler demos/data/torus.fpg",
]


def _run(command):
    argv = [str(ROOT / tok) if tok.startswith(("demos/", "tests/")) else tok
            for tok in shlex.split(command)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return f"$ nilnov {command}\n{buf.getvalue()}[exit {code}]\n"


def transcript():
    return "".join(_run(command) for command in COMMANDS)


def test_cli_transcript_is_byte_identical():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


# one command per kind of iteration over sets and dicts: class-2 quotient,
# Novikov sign sweep, sign-sweep criterion, class-3 collection
HASH_SEED_COMMANDS = [
    "nq demos/data/f2.fpg --class 2",
    "nov-h demos/data/bs12.fpg --char demos/data/chi_z.mchar --degree 1 --frontier 6 --sweep",
    "theorem-f demos/data/torus.fpg --quotient self --char demos/data/chi_torus.mchar -d 2",
    "collect demos/data/f23.pcg 'b^1000 a^1000'",
]


def _run_with_hash_seed(command, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nilnov.cli", *shlex.split(command)],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.stdout, proc.returncode


def test_stdout_does_not_depend_on_the_hash_seed():
    assert set(HASH_SEED_COMMANDS) <= set(COMMANDS)
    for command in HASH_SEED_COMMANDS:
        out, code = _run_with_hash_seed(command, 0)
        assert out and code != 1, command
        assert (out, code) == _run_with_hash_seed(command, 1), command


def readme_commands():
    """Argument lists of the `nilnov` lines in the README's sh blocks,
    with backslash continuations joined and comments dropped."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("nilnov "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_every_readme_command_is_in_the_transcript():
    commands = readme_commands()
    golden = [shlex.split(command) for command in COMMANDS]
    assert commands
    assert [c for c in commands if c not in golden] == []


if __name__ == "__main__":
    print(transcript(), end="")
