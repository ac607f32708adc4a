"""A fixed pure-Python workload that measures how fast this machine runs
Python code at the moment it is called.

The benchmark samples it before, during and after each timed process and
scales the process's wall time by it to a reference speed, so that a change
in the speed of a shared host does not read as a change in the program.
The loop imports nothing from ``bnpoly``, so no change to the program can
move it; it mixes the operations the program spends its time on: exact
``Fraction`` arithmetic (the simplex and double description), and
small-int, bit, tuple, dict and set work (DAG enumeration and ranks).
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

_SIZE = 9


def _matrix(size: int, salt: int) -> list[list[Fraction]]:
    return [
        [Fraction((7 * i + 3 * j + salt) % 11 - 5, 1 + (i * j + salt) % 4) for j in range(size + 1)]
        for i in range(size)
    ]


def _eliminate(rows: list[list[Fraction]]) -> Fraction:
    """Gauss-Jordan elimination over the rationals; returns a checksum."""
    size = len(rows)
    rank = 0
    for col in range(size):
        pivot = next((r for r in range(rank, size) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        inv = 1 / head[col]
        head[:] = [x * inv for x in head]
        for r in range(size):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], head)]
        rank += 1
    return sum(row[-1] for row in rows)


def _graphs(nodes: int) -> int:
    """Tally bit-mask triples in a dict; dict, set, tuple and bit work like
    the DAG enumeration."""
    seen: dict[tuple[int, ...], int] = {}
    masks = range(1 << (nodes - 1))
    for a in masks:
        for b in masks:
            for c in masks:
                key = (a, b << 1, c ^ a)
                if (a & b) or key in seen:
                    continue
                seen[key] = bin(a | b | c).count("1")
    return sum(seen.values()) + len({v & 3 for v in seen.values()})


def work() -> tuple[Fraction, int]:
    """One fixed unit of work; returns a checksum so nothing is optimised away."""
    total = Fraction(0)
    for salt in range(4):
        total += _eliminate(_matrix(_SIZE, salt))
    return total, _graphs(6)


def seconds(repeats: int = 10) -> float:
    """Mean time of one unit of work over ``repeats`` units, in seconds."""
    start = perf_counter()
    for _ in range(repeats):
        work()
    return (perf_counter() - start) / repeats
