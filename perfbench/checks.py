"""The output check every run applies to every record it receives.

Three properties, each checked per record:

* the record equals the ``SequentialBackend`` record for the same seed —
  checked on a fixed sample of replicas per cell (the first and the last),
  because the sequential loop is the slow reference;
* a converged record has exactly one leader;
* the record's ``diameter`` (and ``n``) equal exact values computed from the
  graph's edge list by all-pairs BFS in ``scipy.sparse.csgraph``.

A record that fails any of them, or did not converge, counts as failed.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.exec import ExecutionCell, SequentialBackend, cell_signature

#: Replica positions compared against the sequential loop in every cell.
SAMPLE_POSITIONS = (0, -1)


def exact_facts(cell: ExecutionCell) -> Tuple[int, int]:
    """(n, exact diameter) of the cell's graph, via scipy all-pairs BFS."""
    topology = cell.build_topology()
    edges = np.asarray(topology.edges, dtype=np.int64).reshape(-1, 2)
    n = topology.n
    adjacency = sparse.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)
    ).tocsr()
    distances = csgraph.shortest_path(adjacency, directed=False, unweighted=True)
    return n, int(distances.max())


def sample_cell(cell: ExecutionCell) -> ExecutionCell:
    seeds = tuple(dict.fromkeys(cell.seeds[p] for p in SAMPLE_POSITIONS))
    return replace(cell, seeds=seeds)


def reference(cell: ExecutionCell):
    """Sequential records of the sampled seeds plus the exact graph facts."""
    records = SequentialBackend().run_cells([sample_cell(cell)])
    return {record.seed: record for record in records}, exact_facts(cell)


class Entry(NamedTuple):
    """What the check keeps of one record until the references are in.

    The whole record is kept only at the sampled positions; elsewhere only
    the fields the checks read, so a long run holds little memory.
    """

    seed: int
    n: int
    diameter: int
    converged: bool
    leaders: int
    record: Optional[object]


def record_problems(entry: Entry, facts, expected) -> List[str]:
    """Everything wrong with one record (empty when it passes)."""
    problems = []
    n, diameter = facts
    if entry.n != n or entry.diameter != diameter:
        problems.append(
            f"graph facts n={entry.n} D={entry.diameter}, exact n={n} D={diameter}"
        )
    if entry.converged and entry.leaders != 1:
        problems.append(f"converged with {entry.leaders} leaders")
    if expected is not None and entry.record != expected:
        problems.append(f"differs from the sequential record {expected}")
    return problems


class OutputCheck:
    """Collects outcomes during a run and checks them all afterwards."""

    def __init__(self) -> None:
        self._items: List[Tuple[ExecutionCell, Tuple[Entry, ...]]] = []
        self.attempted = 0
        self.failed = 0
        self.unconverged = 0
        self.problems: List[str] = []

    def add(self, cell: ExecutionCell, outcome) -> None:
        leaders = [result.final_leader_count for result in outcome.results]
        self.add_records(cell, outcome.to_records(), leaders)

    def add_records(self, cell, records: Sequence, leaders: Sequence[int]) -> None:
        sampled = set(sample_cell(cell).seeds)
        entries = tuple(
            Entry(r.seed, r.n, r.diameter, r.converged, count,
                  r if r.seed in sampled else None)
            for r, count in zip(records, leaders)
        )
        self._items.append((cell, entries))

    def add_failed(self, cells: Sequence[ExecutionCell], error: str) -> None:
        """A sweep that raised: every replica it owed counts as failed."""
        count = sum(cell.num_replicas for cell in cells)
        self.attempted += count
        self.failed += count
        self.problems.append(f"sweep failed: {error}")

    def run(self, workers: int = 2) -> None:
        """Compute the references (in a small spawn pool) and check."""
        cells: Dict[str, ExecutionCell] = {}
        for cell, _ in self._items:
            cells.setdefault(cell_signature(cell), cell)
        keys = list(cells)
        context = multiprocessing.get_context("spawn")
        with context.Pool(min(workers, len(keys) or 1)) as pool:
            references = dict(zip(keys, pool.map(reference, [cells[k] for k in keys])))
        self.check(references)

    def check(self, references) -> None:
        for cell, entries in self._items:
            expected, facts = references[cell_signature(cell)]
            if [e.seed for e in entries] != list(cell.seeds):
                self.problems.append(f"{cell.label}: records out of seed order")
            for entry in entries:
                self.attempted += 1
                problems = record_problems(entry, facts, expected.get(entry.seed))
                if not entry.converged:
                    self.unconverged += 1
                if problems or not entry.converged:
                    self.failed += 1
                self.problems.extend(f"{cell.label} seed {entry.seed}: {p}" for p in problems)
        self._items = []

    @property
    def correct(self) -> bool:
        return not self.problems


def self_test() -> int:
    """Show that the check passes real records and fails corrupted ones."""
    from repro.exec import BatchedBackend
    from repro.experiments.config import GraphSpec, ProtocolSpecConfig

    cell = ExecutionCell(
        protocol=ProtocolSpecConfig("bfw"),
        graph=GraphSpec("grid", 16, 3),
        seeds=(11, 12, 13, 14),
    )
    (outcome,) = BatchedBackend().run_cell_outcomes([cell])
    records = list(outcome.to_records())
    leaders = [r.final_leader_count for r in outcome.results]
    references = {cell_signature(cell): reference(cell)}
    last = len(records) - 1
    cases = {
        "genuine records": (records, leaders, True),
        "wrong diameter": (
            records[:1]
            + [replace(records[1], diameter=records[1].diameter + 1)]
            + records[2:],
            leaders,
            False,
        ),
        "two leaders on a converged record": (
            records, leaders[:2] + [2] + leaders[3:], False
        ),
        "differs from the sequential loop": (
            records[:last]
            + [replace(records[last], rounds_executed=records[last].rounds_executed + 1)],
            leaders,
            False,
        ),
    }
    failures = 0
    for name, (case_records, case_leaders, should_pass) in cases.items():
        check = OutputCheck()
        check.add_records(cell, case_records, case_leaders)
        check.check(references)
        verdict = "passes" if check.correct else "fails"
        ok = check.correct == should_pass
        failures += not ok
        detail = check.problems[0] if check.problems else ""
        print(f"{'ok ' if ok else 'BAD'} {name}: check {verdict} {detail}")
    return 1 if failures else 0
