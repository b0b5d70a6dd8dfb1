"""Tests for the trial/sweep runner and the protocol dispatch."""

import pytest

from repro.baselines import PipelinedIDElection
from repro.core.bfw import BFWProtocol, NonUniformBFWProtocol
from repro.errors import ConfigurationError
from repro.experiments.config import GraphSpec, ProtocolSpecConfig, SweepConfig, TrialConfig
from repro.experiments.figures import (
    ablation_experiment,
    lower_bound_experiment,
    scaling_experiment,
)
from repro.experiments.runner import (
    instantiate_protocol,
    run_protocol_on,
    run_sweep,
    run_trial,
)
from repro.experiments.tables import generate_table1
from repro.graphs.generators import clique_graph, path_graph


def test_instantiate_bfw_family():
    topology = path_graph(9)
    assert isinstance(instantiate_protocol("bfw", topology), BFWProtocol)
    nonuniform = instantiate_protocol("bfw-nonuniform", topology)
    assert isinstance(nonuniform, NonUniformBFWProtocol)
    assert nonuniform.diameter == topology.diameter()


def test_instantiate_baselines_with_graph_knowledge():
    topology = path_graph(9)
    id_broadcast = instantiate_protocol("id-broadcast", topology)
    assert id_broadcast.requires_unique_ids
    random_ids = instantiate_protocol("id-broadcast-random", topology)
    assert not random_ids.requires_unique_ids
    assert isinstance(instantiate_protocol("pipelined-ids", topology), PipelinedIDElection)
    epochs = instantiate_protocol("emek-keren", topology)
    assert epochs.epoch_length == topology.diameter() + 2


def test_instantiate_unknown_protocol():
    with pytest.raises(ConfigurationError):
        instantiate_protocol("quantum-election", path_graph(4))


def test_run_protocol_on_dispatch():
    topology = clique_graph(10)
    # Constant-state protocol -> vectorised engine.
    result_bfw = run_protocol_on(topology, BFWProtocol(), rng=0)
    assert result_bfw.converged
    # Memory protocol -> memory simulator.
    knockout = instantiate_protocol("gilbert-newport", topology)
    result_knockout = run_protocol_on(topology, knockout, rng=0)
    assert result_knockout.converged
    # Standalone runner.
    result_pipelined = run_protocol_on(topology, PipelinedIDElection(), rng=0)
    assert result_pipelined.converged


def test_run_protocol_on_rejects_unknown_objects():
    with pytest.raises(ConfigurationError):
        run_protocol_on(path_graph(4), object())


def test_run_trial_produces_record():
    trial = TrialConfig(
        protocol=ProtocolSpecConfig(name="bfw"),
        graph=GraphSpec(family="cycle", n=10),
        seed=5,
    )
    record = run_trial(trial)
    assert record.protocol == "bfw"
    assert record.graph == "cycle(10)"
    assert record.n == 10
    assert record.diameter == 5
    assert record.converged
    assert record.convergence_round is not None


def test_run_sweep_counts_and_progress():
    sweep = SweepConfig(
        name="tiny",
        protocols=(ProtocolSpecConfig(name="bfw"),),
        graphs=(GraphSpec(family="clique", n=8), GraphSpec(family="path", n=6)),
        num_seeds=2,
        master_seed=3,
    )
    lines = []
    records = run_sweep(sweep, progress=lines.append)
    assert len(records) == 4
    assert len(lines) == 2
    assert all(record.converged for record in records)


def test_run_sweep_is_reproducible():
    sweep = SweepConfig(
        name="repro-check",
        protocols=(ProtocolSpecConfig(name="bfw"),),
        graphs=(GraphSpec(family="cycle", n=8),),
        num_seeds=3,
        master_seed=11,
    )
    first = [record.convergence_round for record in run_sweep(sweep)]
    second = [record.convergence_round for record in run_sweep(sweep)]
    assert first == second


@pytest.mark.parametrize(
    "function",
    [
        run_sweep,
        scaling_experiment,
        lower_bound_experiment,
        ablation_experiment,
        generate_table1,
    ],
    ids=lambda function: function.__name__,
)
def test_removed_batched_kwarg_is_rejected(function):
    # The backend is chosen with backend= only; batched= is not a parameter.
    with pytest.raises(TypeError, match="batched"):
        function(batched=True)
