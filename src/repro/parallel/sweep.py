"""The sweep runner: deterministic fan-out of seeded scenario tasks.

Determinism contract
--------------------
``SweepRunner.map(fn, param_sets)`` returns exactly
``[fn(**p) for p in param_sets]`` for any worker count:

- every task's randomness must flow from its own parameters (the
  scenario runners take an explicit integer ``seed``), so no task
  observes global RNG state, execution order, or process identity;
- the runner itself draws no random numbers and assigns results by
  task index, so interleaving across processes cannot reorder them;
- with ``workers=1`` the tasks run in-process in a plain loop — the
  serial reference the parallel paths are tested against.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError

#: Environment variable consulted by :meth:`SweepConfig.from_env`.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


@dataclass(frozen=True)
class SweepConfig:
    """How a sweep is executed.

    ``workers=1`` (the default) runs tasks serially in-process;
    ``workers > 1`` fans them across a :class:`ProcessPoolExecutor`.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )

    @classmethod
    def from_env(cls) -> "SweepConfig":
        """Worker count from ``$REPRO_SWEEP_WORKERS`` (default 1).

        Lets CI and single-core boxes keep the serial path while a
        workstation opts into parallelism without touching code.
        """
        raw = os.environ.get(WORKERS_ENV, "").strip()
        try:
            workers = int(raw) if raw else 1
        except ValueError as exc:
            raise ConfigurationError(
                f"${WORKERS_ENV} must be an integer, got {raw!r}"
            ) from exc
        return cls(workers=max(workers, 1))


def _invoke(payload: tuple[Callable, Mapping[str, Any]]) -> Any:
    """Top-level trampoline so tasks pickle by function reference."""
    fn, params = payload
    return fn(**params)


class SweepRunner:
    """Executes a sweep of ``fn(**params)`` tasks per the config."""

    def __init__(self, config: SweepConfig | None = None) -> None:
        self.config = config if config is not None else SweepConfig()

    def _chunk_size(self, n_tasks: int) -> int:
        # ~4 chunks per worker balances IPC overhead against stragglers.
        return max(1, n_tasks // (4 * self.config.workers))

    def map(
        self,
        fn: Callable,
        param_sets: Sequence[Mapping[str, Any]],
    ) -> list[Any]:
        """``[fn(**p) for p in param_sets]``, in parallel when configured.

        ``fn`` must be a module-level callable (workers import it by
        reference) and results must be picklable when ``workers > 1``.
        """
        payloads = [(fn, params) for params in param_sets]
        if self.config.workers == 1 or not payloads:
            return [_invoke(p) for p in payloads]
        with ProcessPoolExecutor(max_workers=self.config.workers) as pool:
            return list(
                pool.map(
                    _invoke,
                    payloads,
                    chunksize=self._chunk_size(len(payloads)),
                )
            )
