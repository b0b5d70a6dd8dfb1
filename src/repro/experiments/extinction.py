"""E15 — leader extinction under churn: quantifying the Lemma 9 violation.

On a static connected graph, Lemma 9 guarantees every BFW execution keeps at
least one leader.  Under edge churn that guarantee breaks: colliding
elimination waves rewired mid-collision can destroy *both* surviving
leaders, after which the configuration is absorbing — no transition creates
a leader, and the replica burns its whole round budget.  PR 4 recorded this
as a measured (single-seed) finding; this experiment makes it a first-class
result by attaching the batched
:class:`~repro.analysis.LeaderExtinctionObserver` to every replica of a
churn-rate × family × size sweep and tabulating the measured
leader-extinction rate per cell.

The observers ride the cells as pure-data
:class:`~repro.batch.observers.ObserverSpec` entries, so the sweep runs on
any :mod:`repro.exec` backend with byte-identical records *and*
observations; the default is ``"batched"``, where one engine pass observes
all replicas of a cell at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.batch.observers import LeaderExtinctionReport, ObserverSpec
from repro.errors import ConfigurationError
from repro.exec import BackendSpec, ExecutionCell, resolve_backend
from repro.experiments.config import GraphSpec, ProtocolSpecConfig
from repro.experiments.dynamics import (
    DEFAULT_DYNAMIC_MAX_ROUNDS,
    capped_dynamic_budget,
    schedule_spec_for_rate,
)
from repro.experiments.results import TrialRecord
from repro.experiments.runner import cell_progress_adapter
from repro.experiments.seeds import DEFAULT_MASTER_SEED, trial_seeds
from repro.viz.table_format import render_table


@dataclass(frozen=True)
class ExtinctionCellRow:
    """Aggregated extinction outcome of one (graph, size, churn rate) cell.

    Attributes
    ----------
    extinction_rate:
        Fraction of replicas that ever reached a leaderless round.
    absorbed_rate:
        Fraction of replicas that *ended* leaderless (under BFW the
        leaderless state is absorbing, so this matches ``extinction_rate``
        whenever the budget outlives the extinction event).
    mean_extinction_round:
        Mean first-extinction round over extinct replicas (``None`` when no
        replica went extinct).
    convergence_rate, capped_runs:
        Convergence bookkeeping of the same replicas (capped = burned the
        whole round budget without electing a leader).
    """

    graph: str
    schedule: str
    n: int
    diameter: int
    churn_rate: int
    num_replicas: int
    extinction_rate: float
    absorbed_rate: float
    mean_extinction_round: Optional[float]
    convergence_rate: float
    capped_runs: int
    report: LeaderExtinctionReport


@dataclass(frozen=True)
class ExtinctionResult:
    """Outcome of the leader-extinction sweep (experiment E15)."""

    protocol: str
    schedule_kind: str
    #: The requested budget, or the default ceiling
    #: (:data:`DEFAULT_DYNAMIC_MAX_ROUNDS`) when none was requested — in
    #: the latter case each cell runs under
    #: ``min(engine default, ceiling)``; see :func:`capped_dynamic_budget`.
    max_rounds: int
    rows: Tuple[ExtinctionCellRow, ...]
    records: Tuple[TrialRecord, ...]

    def render(self) -> str:
        """Plain-text table: leader-extinction rate vs churn rate."""
        table_rows = [
            (
                row.graph,
                row.churn_rate,
                row.schedule,
                row.n,
                row.diameter,
                row.num_replicas,
                row.extinction_rate,
                row.absorbed_rate,
                (
                    "-"
                    if row.mean_extinction_round is None
                    else round(row.mean_extinction_round, 1)
                ),
                row.convergence_rate,
                row.capped_runs,
            )
            for row in self.rows
        ]
        return render_table(
            [
                "graph",
                "rate",
                "schedule",
                "n",
                "D",
                "R",
                "extinct",
                "absorbed",
                "mean ext. round",
                "conv. rate",
                "capped",
            ],
            table_rows,
            title=(
                f"Leader extinction — {self.protocol} under "
                f"{self.schedule_kind} (E15; Lemma 9 violations per replica, "
                f"round budget <= {self.max_rounds})"
            ),
        )


def leader_extinction_experiment(
    protocol: str = "bfw",
    families: Sequence[str] = ("cycle",),
    sizes: Sequence[int] = (16, 32),
    churn_rates: Sequence[int] = (0, 1, 2, 4),
    schedule_kind: str = "edge-churn",
    num_seeds: int = 20,
    master_seed: int = DEFAULT_MASTER_SEED,
    max_rounds: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    backend: BackendSpec = None,
) -> ExtinctionResult:
    """Measure the leader-extinction rate across churn rate × family × size.

    Every cell carries a ``leader-extinction`` :class:`ObserverSpec`; the
    executing backend attaches the batched observer to the engine run and
    ships the per-replica :class:`LeaderExtinctionReport` back with the
    records.  Rate 0 is the explicit static schedule, where Lemma 9 holds
    and the measured extinction rate must be exactly zero — the sweep's
    built-in control row.

    The default round budget is the engines' default capped at
    :data:`DEFAULT_DYNAMIC_MAX_ROUNDS`, per cell (extinct replicas are
    absorbing and never early-stop, so an uncapped budget only measures the
    stall — and a cap must never *raise* a small graph's budget).
    """
    if num_seeds < 1:
        raise ConfigurationError(f"num_seeds must be >= 1; got {num_seeds}")
    if not families or not sizes or not churn_rates:
        raise ConfigurationError(
            "leader_extinction_experiment needs at least one family, size "
            "and churn rate"
        )
    ceiling = max_rounds if max_rounds is not None else DEFAULT_DYNAMIC_MAX_ROUNDS
    if ceiling < 1:
        raise ConfigurationError(f"max_rounds must be >= 1; got {ceiling}")
    resolved = resolve_backend(backend, default="batched")

    cells = []
    rates = []
    for family in families:
        for n in sizes:
            graph_spec = GraphSpec(family=family, n=n)
            budget = (
                max_rounds
                if max_rounds is not None
                else capped_dynamic_budget(graph_spec)
            )
            for rate in churn_rates:
                schedule_seed = trial_seeds(
                    master_seed, f"extinction-schedule/{family}/{n}/{rate}", 1
                )[0]
                spec = schedule_spec_for_rate(schedule_kind, int(rate), schedule_seed)
                cells.append(
                    ExecutionCell(
                        protocol=ProtocolSpecConfig(name=protocol),
                        graph=graph_spec,
                        seeds=trial_seeds(
                            master_seed,
                            f"extinction/{protocol}/{family}/{n}/{spec.label}",
                            num_seeds,
                        ),
                        max_rounds=budget,
                        schedule=spec,
                        observers=(ObserverSpec("leader-extinction"),),
                    )
                )
                rates.append(int(rate))

    outcomes = resolved.run_cell_outcomes(
        tuple(cells), progress=cell_progress_adapter(progress)
    )

    rows = []
    records = []
    for rate, outcome in zip(rates, outcomes):
        cell_records = outcome.to_records()
        records.extend(cell_records)
        assert outcome.observations is not None
        report = outcome.observations[0]
        assert isinstance(report, LeaderExtinctionReport)
        rows.append(
            ExtinctionCellRow(
                graph=outcome.cell.graph.label,
                schedule=outcome.cell.schedule.label,
                n=outcome.n,
                diameter=outcome.diameter,
                churn_rate=rate,
                num_replicas=outcome.cell.num_replicas,
                extinction_rate=report.extinction_rate,
                absorbed_rate=report.absorbed_rate,
                mean_extinction_round=report.mean_extinction_round(),
                convergence_rate=float(
                    np.mean([record.converged for record in cell_records])
                ),
                capped_runs=sum(
                    1 for record in cell_records if not record.converged
                ),
                report=report,
            )
        )

    return ExtinctionResult(
        protocol=protocol,
        schedule_kind=schedule_kind,
        max_rounds=ceiling,
        rows=tuple(rows),
        records=tuple(records),
    )
