"""Order-preserving parallel map used by the verification suite.

Results are returned in task order no matter how workers are scheduled,
so reports are byte-identical across worker counts.
"""

from __future__ import annotations

# the package's lazy __getattr__ loads concurrent.futures.process and
# multiprocessing only when a pool is made
import concurrent.futures
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(
    fn: Callable[[T], R], items: Sequence[T], workers: int = 1, chunksize: int = 8
) -> list[R]:
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # the pool forks all its workers up front: no more than there are tasks
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
