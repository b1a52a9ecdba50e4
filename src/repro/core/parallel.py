"""Parallel sweep runner: independent experiment cells across processes.

Every exhibit runs as a list of cells, and the cells of a sweep are
*embarrassingly parallel*: each cell builds its own
:class:`~repro.sim.kernel.Simulator` and its own seeded
:class:`~repro.sim.random.RandomStreams`, runs to completion, and reports
plain numbers. Nothing is shared, so the cells can run on as many cores as
the machine has without touching the determinism story — a cell's result is
a pure function of its (picklable) descriptor.

The contract:

- ``run_cells(worker, cells)`` returns results **in cell order** (ordered
  deterministic merge), regardless of which worker finished first.
- With parallelism off (the default), the cells run serially in-process —
  the exact code path the committed exhibits were generated with.
- With parallelism on, each cell runs in a ``ProcessPoolExecutor`` worker;
  results are value-identical because the cell already owned its simulator
  and seed.

Parallelism is requested either programmatically (``parallel=N``), via the
CLI (``--parallel N``), or via the ``REPRO_BENCH_PARALLEL`` environment
variable; ``0`` means "one worker per CPU".
"""

from __future__ import annotations

import os
import typing

#: Environment switch honoured when no explicit parallelism is requested.
ENV_VAR = "REPRO_BENCH_PARALLEL"

_MASK64 = (1 << 64) - 1

Cell = typing.TypeVar("Cell")
Result = typing.TypeVar("Result")


def resolve_parallelism(requested: int | None = None) -> int:
    """Number of workers to use: explicit request, else ``REPRO_BENCH_PARALLEL``.

    Returns 1 (serial, in-process) when neither is set. ``0`` expands to the
    CPU count; negative values are rejected.
    """
    if requested is None:
        raw = os.environ.get(ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            requested = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_VAR}={raw!r} is not an integer") from None
    if requested < 0:
        raise ValueError(f"parallelism must be >= 0, got {requested}")
    if requested == 0:
        requested = os.cpu_count() or 1
    return requested


def derive_seed(base: int, index: int) -> int:
    """A stable, well-mixed per-cell seed (splitmix64 over base and index).

    Cells that need *distinct* random streams (rather than a shared base
    seed) derive them here so the mapping is reproducible across runs,
    machines, and worker counts — never from worker identity or wall time.
    """
    z = ((base & _MASK64) + (0x9E3779B97F4A7C15 * (index + 1))) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def run_cells(
    worker: typing.Callable[[Cell], Result],
    cells: typing.Sequence[Cell],
    parallel: int | None = None,
) -> list[Result]:
    """Run ``worker`` over every cell; results come back in cell order.

    ``worker`` must be a module-level callable and each cell descriptor
    picklable (they cross a process boundary when parallelism is on). With
    one worker — or one cell — this is a plain serial loop, bit-identical
    to the pre-parallel code path.
    """
    cells = list(cells)
    workers = resolve_parallelism(parallel)
    if workers <= 1 or len(cells) <= 1:
        return [worker(cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor

    workers = min(workers, len(cells))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, cells))
