import contextlib
import signal

import pytest

from nilnov import parse_pc, parse_presentation

HEIS_SRC = """
pcgroup H3
level 0: a b
level 1: c
conj b a = c
"""

Z_SRC = "pcgroup Z\nlevel 0: t\n"
Z2_SRC = "pcgroup Z2\nlevel 0: a b\n"
Z3_SRC = "pcgroup Z3\nlevel 0: a b c\n"

F23_SRC = """
pcgroup F23
level 0: a b
level 1: c
level 2: d e
conj b a = c
conj c a = d
conj c b = e
"""

TORUS_SRC = "group torus\ngens a b\nrel a b a^-1 b^-1\n"
BS12_SRC = "group bs12\ngens a t\nrel t a t^-1 a^-2\n"
F2_SRC = "group f2\ngens a b\n"
MT_SRC = ("group mt\ngens a b t\n"
          "rel t a t^-1 b^-1\n"
          "rel t b t^-1 b^-1 a^-1\n")


@pytest.fixture(scope="session")
def heis():
    return parse_pc(HEIS_SRC)


@pytest.fixture(scope="session")
def zgroup():
    return parse_pc(Z_SRC)


@pytest.fixture(scope="session")
def z2group():
    return parse_pc(Z2_SRC)


@pytest.fixture(scope="session")
def z3group():
    return parse_pc(Z3_SRC)


@pytest.fixture(scope="session")
def free_class3():
    return parse_pc(F23_SRC)


@pytest.fixture(scope="session")
def torus():
    return parse_presentation(TORUS_SRC)


@pytest.fixture(scope="session")
def bs12():
    return parse_presentation(BS12_SRC)


@pytest.fixture(scope="session")
def f2():
    return parse_presentation(F2_SRC)


@pytest.fixture(scope="session")
def mapping_torus():
    return parse_presentation(MT_SRC)


def heisenberg_matrix(word, index):
    """Independent oracle: 3x3 unitriangular coordinates (x, y, z) with
    (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+x*y'); a=(0,1,0), b=(1,0,0),
    c=(0,0,1) realizes b*a = a*b*c."""
    basis = {index["a"]: (0, 1, 0), index["b"]: (1, 0, 0), index["c"]: (0, 0, 1)}

    def mul(p, q):
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])

    acc = (0, 0, 0)
    for g, e in word:
        base = basis[g]
        if e < 0:
            step = (-base[0], -base[1], -base[2] + base[0] * base[1])
            for _ in range(-e):
                acc = mul(acc, step)
        else:
            for _ in range(e):
                acc = mul(acc, base)
    return acc


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError once the block has run for `seconds` of wall
    time, instead of letting a runaway computation hang the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
