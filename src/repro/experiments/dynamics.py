"""E14 — BFW under edge churn: the dynamic-graph experiment.

The paper's guarantees are proved on a static connected graph; its Section 5
discussion is about what breaks outside those assumptions.  This experiment
probes that boundary empirically: the same constant-state protocol, the same
seeded replicas, but the communication graph churns while the protocol runs.
The sweep crosses churn rate × graph family × size, with churn rate ``0``
executed as an explicit ``static`` schedule — so the dynamic code path's
baseline row is byte-identical to the classical engines by construction.

Like every sweep-shaped experiment, the cells execute on any
:mod:`repro.exec` backend (``sequential``, ``batched``, ``process:N``) with
byte-identical records: schedules travel inside the cells as pure-data
:class:`~repro.dynamics.schedules.ScheduleSpec` objects and are rebuilt
deterministically inside whichever process runs the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.dynamics.schedules import ScheduleSpec
from repro.errors import ConfigurationError
from repro.exec import BackendSpec, ExecutionCell, resolve_backend
from repro.experiments.config import GraphSpec, ProtocolSpecConfig
from repro.experiments.results import TrialRecord
from repro.experiments.runner import cell_progress_adapter
from repro.experiments.seeds import DEFAULT_MASTER_SEED, trial_seeds
from repro.stats.summary import Summary, summarize_sample
from repro.viz.table_format import render_table

#: Schedule kinds the churn-rate sweep knows how to parameterise.
DYNAMIC_SCHEDULE_KINDS: Tuple[str, ...] = ("edge-churn", "cut", "interpolate")

#: Ceiling on the default round budget for churned cells.  Edge churn can
#: eliminate every leader (impossible on a static graph), after which the
#: configuration is absorbing — no transition creates a leader, the replica
#: never early-stops, and an uncapped sweep burns the engines' generous
#: ``D² log n``-scaled default budget measuring nothing but the stall.  The
#: effective budget is ``min(engine default, this ceiling)`` (see
#: :func:`capped_dynamic_budget` — a cap must never *raise* a small graph's
#: budget), and capped replicas are reported per row (``capped_runs``)
#: instead of silently spinning.  Rate-0 (static) cells keep the engines'
#: default budget so their records stay byte-identical to the classical
#: scheduleless sweep.
DEFAULT_DYNAMIC_MAX_ROUNDS: int = 20_000


def capped_dynamic_budget(graph: GraphSpec) -> int:
    """The default round budget of a churned cell on ``graph``.

    ``min(default_round_budget(topology), DEFAULT_DYNAMIC_MAX_ROUNDS)``,
    with the topology built exactly as the cell itself builds it — so the
    cap only ever *lowers* the engines' default, never inflates the work a
    stalled replica burns on small graphs.
    """
    from repro.beeping.simulator import default_round_budget
    from repro.experiments.seeds import rng_from
    from repro.graphs.generators import make_graph

    topology = make_graph(
        graph.family,
        graph.n,
        rng=rng_from(graph.seed, "graph", graph.family, graph.n),
    )
    return min(DEFAULT_DYNAMIC_MAX_ROUNDS, default_round_budget(topology))


def schedule_spec_for_rate(
    kind: str, rate: int, seed: int
) -> ScheduleSpec:
    """Map one (schedule kind, churn rate) sweep point onto a ScheduleSpec.

    Rate ``0`` is always the explicit ``static`` schedule — the dynamic code
    path's identity element.  For ``edge-churn`` the rate is the number of
    edges added *and* removed per round; for ``cut`` it is the number of
    down-rounds per 8-round window; for ``interpolate`` it scales how fast
    the graph densifies into a clique (higher rate = faster morph).
    """
    if rate < 0:
        raise ConfigurationError(f"churn rate must be >= 0; got {rate}")
    if rate == 0:
        return ScheduleSpec("static")
    if kind == "edge-churn":
        return ScheduleSpec(
            "edge-churn",
            {"add_per_round": rate, "remove_per_round": rate, "seed": seed},
        )
    if kind == "cut":
        if rate > 8:
            raise ConfigurationError(
                f"cut rates are down-rounds per 8-round window and must be "
                f"<= 8; got {rate}"
            )
        return ScheduleSpec("cut", {"period": 8, "down_rounds": rate})
    if kind == "interpolate":
        return ScheduleSpec(
            "interpolate",
            {"target_family": "clique", "rounds": max(1, 256 // rate), "seed": seed},
        )
    raise ConfigurationError(
        f"unknown dynamic schedule kind {kind!r}; "
        f"known: {', '.join(DYNAMIC_SCHEDULE_KINDS)}"
    )


@dataclass(frozen=True)
class DynamicCellRow:
    """Aggregated outcome of one (graph, size, churn rate) cell.

    ``capped_runs`` counts the replicas that exhausted their round budget
    without converging (under churn these are typically leaderless,
    absorbing configurations — see the ROADMAP's measured leader-extinction
    finding, quantified by ``repro extinction``).
    """

    graph: str
    schedule: str
    n: int
    diameter: int
    churn_rate: int
    num_replicas: int
    convergence_rate: float
    rounds: Summary
    capped_runs: int = 0


@dataclass(frozen=True)
class DynamicResult:
    """Outcome of the dynamic-graph sweep (experiment E14)."""

    protocol: str
    schedule_kind: str
    rows: Tuple[DynamicCellRow, ...]
    records: Tuple[TrialRecord, ...]

    @property
    def capped_runs(self) -> int:
        """Replicas (over all cells) that burned their whole round budget."""
        return sum(row.capped_runs for row in self.rows)

    def render(self) -> str:
        """Plain-text table: convergence under increasing churn."""
        table_rows = [
            (
                row.graph,
                row.churn_rate,
                row.schedule,
                row.n,
                row.diameter,
                row.num_replicas,
                row.convergence_rate,
                row.capped_runs,
                row.rounds.mean,
                row.rounds.median,
                row.rounds.q95,
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
                "conv. rate",
                "capped",
                "mean rounds",
                "median",
                "q95",
            ],
            table_rows,
            title=(
                f"Dynamic graphs — {self.protocol} under {self.schedule_kind} "
                f"(E14; D is the initial graph's diameter; 'capped' counts "
                f"replicas that exhausted their round budget)"
            ),
        )


def dynamic_experiment(
    protocol: str = "bfw",
    families: Sequence[str] = ("cycle",),
    sizes: Sequence[int] = (32, 64),
    churn_rates: Sequence[int] = (0, 1, 2, 4),
    schedule_kind: str = "edge-churn",
    num_seeds: int = 10,
    master_seed: int = DEFAULT_MASTER_SEED,
    max_rounds: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    backend: BackendSpec = None,
) -> DynamicResult:
    """Sweep churn rate × graph family × size for one protocol (E14).

    Every (family, size, rate) combination is one
    :class:`~repro.exec.ExecutionCell` whose schedule spec derives its churn
    seed from ``master_seed``, so the whole experiment is reproducible from
    one integer and produces byte-identical records on every execution
    backend (the default is ``"batched"``, where one adjacency swap per
    round serves all replicas).

    With ``max_rounds=None``, churned cells (rate > 0) run under
    :func:`capped_dynamic_budget` — the engines' default budget capped at
    :data:`DEFAULT_DYNAMIC_MAX_ROUNDS`: churn can leave a replica
    leaderless and absorbing, and on large graphs such replicas would
    otherwise spin through a much larger default budget.  Capped replicas
    are counted per row (:attr:`DynamicCellRow.capped_runs`).  Rate-0 cells
    keep the engines' default budget, preserving bit-identity with the
    classical static sweep.
    """
    if num_seeds < 1:
        raise ConfigurationError(f"num_seeds must be >= 1; got {num_seeds}")
    if not families or not sizes or not churn_rates:
        raise ConfigurationError(
            "dynamic_experiment needs at least one family, size and churn rate"
        )
    resolved = resolve_backend(backend, default="batched")

    cells = []
    rates = []
    for family in families:
        for n in sizes:
            capped_budget = None
            if max_rounds is None and any(rate > 0 for rate in churn_rates):
                capped_budget = capped_dynamic_budget(GraphSpec(family=family, n=n))
            for rate in churn_rates:
                schedule_seed = trial_seeds(
                    master_seed, f"dynamic-schedule/{family}/{n}/{rate}", 1
                )[0]
                spec = schedule_spec_for_rate(schedule_kind, int(rate), schedule_seed)
                cell_budget = max_rounds
                if cell_budget is None and rate > 0:
                    cell_budget = capped_budget
                cell = ExecutionCell(
                    protocol=ProtocolSpecConfig(name=protocol),
                    graph=GraphSpec(family=family, n=n),
                    seeds=trial_seeds(
                        master_seed,
                        f"dynamic/{protocol}/{family}/{n}/{spec.label}",
                        num_seeds,
                    ),
                    max_rounds=cell_budget,
                    schedule=spec,
                )
                cells.append(cell)
                rates.append(int(rate))

    outcomes = resolved.run_cell_outcomes(
        tuple(cells), progress=cell_progress_adapter(progress)
    )

    rows = []
    records = []
    for rate, outcome in zip(rates, outcomes):
        cell_records = outcome.to_records()
        records.extend(cell_records)
        effective = [
            float(
                record.convergence_round
                if record.convergence_round is not None
                else record.rounds_executed
            )
            for record in cell_records
        ]
        rows.append(
            DynamicCellRow(
                graph=outcome.cell.graph.label,
                schedule=outcome.cell.schedule.label,
                n=outcome.n,
                diameter=outcome.diameter,
                churn_rate=rate,
                num_replicas=outcome.cell.num_replicas,
                convergence_rate=float(
                    np.mean([record.converged for record in cell_records])
                ),
                rounds=summarize_sample(effective),
                # A non-converged replica has no other early exit: it ran
                # its entire round budget, i.e. the cap bound it.
                capped_runs=sum(
                    1 for record in cell_records if not record.converged
                ),
            )
        )

    return DynamicResult(
        protocol=protocol,
        schedule_kind=schedule_kind,
        rows=tuple(rows),
        records=tuple(records),
    )
