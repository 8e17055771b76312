"""Shared pieces of the benchmark: child processes, scratch space, and the
benchmark's own 2x2 group arithmetic.

Nothing here imports the workbench.  The group arithmetic (word products,
complex lengths, the necklace walk) is written apart from the program so
that the output checks do not trust the code they check.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
CHILD_TIMEOUT_S = 150.0

TAU = 2.0 * math.pi


class CheckFailure(Exception):
    """An output of the program disagrees with the benchmark's own oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# child processes


def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["ZETA_CACHE_DIR"] = str(cache_dir)
    return env


@dataclass
class ChildResult:
    argv: list[str]
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str], env: dict, workdir: Path) -> ChildResult:
    """Run one child to its end; time it from spawn to exit and read its
    peak resident set from the kernel's accounting for that child."""
    out_path = workdir / "child.stdout"
    err_path = workdir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped above; keep Popen from waiting again
    return ChildResult(
        argv=argv,
        code=code,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "zeta_workbench.cli", *args]


class Scratch:
    """Per-run scratch directory inside the checkout, removed on close."""

    def __init__(self, tag: str):
        self.path = SCRATCH / f"{tag}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._count = 0

    def fresh(self, name: str) -> Path:
        self._count += 1
        path = self.path / f"{name}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return path


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def from_pair(p) -> complex:
    return complex(p[0], p[1])


# ---------------------------------------------------------------------------
# 2x2 group arithmetic on tuples (a, b, c, d) = [[a, b], [c, d]]


def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(x):
    a, b, c, d = x
    det = a * d - b * c
    return (d / det, -b / det, -c / det, a / det)


def diag(lam: complex):
    return (complex(lam), 0j, 0j, 1.0 / complex(lam))


def schottky_pair(lam: complex, mu: complex):
    """a = diag(lam, 1/lam) and b = M diag(mu, 1/mu) M^-1, M = [[1,1],[1,2]].

    The fixed-point pairs {0, inf} and {1/2, 1} are disjoint; for moduli of
    at least 2.5 the pair plays ping-pong and generates a free group.
    """
    m = (1 + 0j, 1 + 0j, 1 + 0j, 2 + 0j)
    m_inv = (2 + 0j, -1 + 0j, -1 + 0j, 1 + 0j)
    return diag(lam), mat_mul(mat_mul(m, diag(mu)), m_inv)


def presentation_doc(a, b) -> dict:
    return {
        "generators": [
            {"name": "a", "matrix": [pair(z) for z in a]},
            {"name": "b", "matrix": [pair(z) for z in b]},
        ],
        "includes_inverses": False,
    }


def wrap_angle(theta: float) -> float:
    y = math.remainder(theta, TAU)
    return y + TAU if y <= -math.pi else y


def complex_length(x) -> tuple[float, float]:
    """(2 ln|lam|, 2 arg lam) for the eigenvalue lam of larger modulus."""
    tr = x[0] + x[3]
    disc = cmath.sqrt(tr * tr / 4.0 - 1.0)
    lam = max(tr / 2.0 + disc, tr / 2.0 - disc, key=abs)
    return 2.0 * math.log(abs(lam)), wrap_angle(2.0 * cmath.phase(lam))


def alphabet(a, b) -> dict:
    return {"a": a, "b": b, "A": mat_inv(a), "B": mat_inv(b)}


def word_product(letters: dict, word: str):
    acc = (1 + 0j, 0j, 0j, 1 + 0j)
    for symbol in word:
        acc = mat_mul(acc, letters[symbol])
    return acc


def least_rotation(word: str) -> str:
    return min(word[i:] + word[:i] for i in range(len(word)))


def is_cyclically_reduced(word: str) -> bool:
    if any(x == y.swapcase() for x, y in zip(word, word[1:])):
        return False
    return len(word) == 1 or word[0] != word[-1].swapcase()


def primitive_period(word: str) -> int:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word[p:] + word[:p] == word:
            return p
    return n


@dataclass(frozen=True)
class Necklace:
    word: str  # least rotation
    length: float
    angle: float
    multiplicity: int


def necklace_walk(letters: dict, depth: int) -> tuple[list[Necklace], int]:
    """Every conjugacy class of the free group on a, b whose cyclically
    reduced words have at most `depth` letters, one least-rotation word per
    class, with multiplicity = word length / primitive period.

    Returns the classes and the number of reduced words visited.
    """
    out: list[Necklace] = []
    visited = 0
    stack = [(symbol, letters[symbol]) for symbol in "BAba"]
    while stack:
        word, mat = stack.pop()
        visited += 1
        n = len(word)
        if (n == 1 or word[0] != word[-1].swapcase()) and word == least_rotation(word):
            length, angle = complex_length(mat)
            out.append(Necklace(word, length, angle, n // primitive_period(word)))
        if n < depth:
            back = word[-1].swapcase()
            for symbol in "BAba":
                if symbol != back:
                    stack.append((word + symbol, mat_mul(mat, letters[symbol])))
    return out, visited
