"""Shared enumeration, hypothesis strategies, cross-check helpers, the doctored-cache
helper and the two CLI runners for the test suite: in process, and through the entry
point in a fresh process."""

import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from typing import Sequence
from unittest.mock import patch

from hypothesis import strategies as st

from floorsum import ExtremeRecord, Instance, ResultCache, eval_closed, extremes
from floorsum.cli import cli


def iter_bounded(n_max, m_max, n_min=1):
    """Every bounded (m, A, K) cell with n_min <= n <= n_max, m <= m_max.

    A runs over multisets (nonincreasing tuples); K over [0, m-1].
    """
    for m in range(1, m_max + 1):
        for n in range(n_min, n_max + 1):
            for a in combinations_with_replacement(range(m - 1, -1, -1), n):
                for k in range(m):
                    yield m, a, k


@st.composite
def bounded_instances(draw, n_min=1, n_max=5, m_max=12):
    """A random bounded Instance (all elements and K in [0, m-1])."""
    m = draw(st.integers(1, m_max))
    n = draw(st.integers(n_min, n_max))
    a = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    k = draw(st.integers(0, m - 1))
    return Instance(m, a, k)


def n4_five_sum(m: int, a: Sequence[int], k: int) -> tuple[int, int, tuple[int, ...]]:
    """(lhs, rhs, terms) of the four-element five-sum regrouping

    S({a1,a2,a3,a4}, K) = S({a1+a2+a3, a4}, K) - S({a1+a2, a4}, K)
                        - S({a1+a3, a4}, K) - S({a2, a3, a4}, K) + S({a1, a4}, K)

    with every sum by ``eval_closed``; terms are the five right-hand sums in order.
    """
    a1, a2, a3, a4 = a
    groups = ((a1 + a2 + a3, a4), (a1 + a2, a4), (a1 + a3, a4), (a2, a3, a4), (a1, a4))
    terms = tuple(eval_closed(Instance(m, g, k)) for g in groups)
    rhs = terms[0] - terms[1] - terms[2] - terms[3] + terms[4]
    return eval_closed(Instance(m, tuple(a), k)), rhs, terms


def continuum_phi(x: Sequence[Fraction], kappa: Fraction) -> Fraction:
    """Phi_n(x, kappa) = sum over T of (-1)^(n-|T|) * g(sigma_T, kappa), with sigma_T the
    sum of the x_i in T and g(sigma, kappa) = floor(sigma)*kappa + max(0, {sigma} + kappa - 1),
    in exact Fractions: the continuum form of ``core.py``, S_m(A, K) = m*Phi_n(A/m, (K+1)/m)."""
    total = Fraction(0)
    for size in range(len(x) + 1):
        for subset in combinations(x, size):
            sigma = sum(subset, Fraction(0))
            q = math.floor(sigma)
            total += (-1) ** (len(x) - size) * (q * kappa + max(0, sigma - q + kappa - 1))
    return total


def reference_extremes(space) -> ExtremeRecord:
    """The record ``extremes`` must return, by walking every cell in
    enumeration order with ``eval_closed``: first ``cap`` sites, exact counts."""
    lo, hi = space.k_range
    cells = [((a, k), eval_closed(Instance(space.m, a, k)))
             for a in combinations_with_replacement(range(space.m - 1, -1, -1), space.n)
             for k in range(lo, hi + 1)]
    max_value = max(v for _, v in cells)
    min_value = min(v for _, v in cells)
    max_sites = [site for site, v in cells if v == max_value]
    min_sites = [site for site, v in cells if v == min_value]
    return ExtremeRecord(
        space, max_value=max_value, min_value=min_value,
        max_sites=tuple(max_sites[:space.cap]), min_sites=tuple(min_sites[:space.cap]),
        max_count=len(max_sites), min_count=len(min_sites))


def poisoned_cache(path: Path, space, **overrides) -> str:
    """Plant at ``path`` a cache holding the record of ``space`` with ``overrides``
    applied, so the CLI's failure paths can be driven by a served record."""
    record = ExtremeRecord.from_dict({**extremes(space).to_dict(), **overrides})
    ResultCache(path).put(space, record)
    return str(path)


@dataclass(frozen=True)
class Invocation:
    """What one CLI run wrote and returned."""

    exit_code: int
    stdout_bytes: bytes
    stderr_bytes: bytes

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode()

    @property
    def stderr(self) -> str:
        return self.stderr_bytes.decode()

    @property
    def output(self) -> str:
        """Both streams, stdout first."""
        return self.stdout + self.stderr


def invoke(argv: Sequence[str], env: dict | None = None) -> Invocation:
    """Run the CLI in process on ``argv`` under the program name ``floorsum``.

    ``env`` sets environment variables for the run; a value of None unsets one.
    """
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    with patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        for name, value in (env or {}).items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        code = cli(list(argv))
    out.flush()
    err.flush()
    return Invocation(code, out.buffer.getvalue(), err.buffer.getvalue())


# The environment of every CLI process the suite starts: this checkout's src on
# PYTHONPATH, and no inherited FLOORSUM_CACHE.
STARTED_ENV = {**{name: value for name, value in os.environ.items() if name != "FLOORSUM_CACHE"},
               "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def run_entry_point(argv: Sequence[str], directory: Path) -> Invocation:
    """Run the CLI on ``argv`` as an installed ``floorsum`` runs it: a script of that
    name, written to ``directory``, that calls ``main()`` as pip's console script does,
    in a fresh process under ``STARTED_ENV`` with ``directory`` as its working
    directory, for at most 60 s."""
    script = directory / "floorsum"
    script.write_text("from floorsum.cli import main\nmain()\n")
    done = subprocess.run([sys.executable, str(script), *argv], env=STARTED_ENV, cwd=directory,
                          capture_output=True, timeout=60)
    return Invocation(done.returncode, done.stdout, done.stderr)
