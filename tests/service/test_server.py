"""HTTP-level tests for the sweep-service daemon: routes, errors, lifecycle."""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.exec import SequentialBackend, resolve_backend
from repro.service import ServiceBackend, ServiceClient
from repro.service.wire import cells_to_payload

from tests.service.conftest import make_cell


def _get(url, path):
    with urllib.request.urlopen(f"{url}{path}", timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post(url, path, payload):
    request = urllib.request.Request(
        f"{url}{path}",
        method="POST",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


# --------------------------------------------------------------------------- #
# Liveness and metrics
# --------------------------------------------------------------------------- #


def test_healthz(service):
    status, payload = _get(service.url, "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["state"] == "serving"
    assert payload["workers"] == 2


def test_metrics_reports_counters_and_cache(service):
    client = ServiceClient(service.url)
    client.submit([make_cell()])
    metrics = client.metrics()
    counters = metrics["service"]["counters"]
    assert counters["service.sweeps_submitted"] == 1
    assert counters["service.cells_submitted"] == 1
    assert "service.cache_hits" in counters
    assert "service.cache_misses" in counters
    assert metrics["service"]["gauges"]["service.workers"] == 2


# --------------------------------------------------------------------------- #
# Submission and status
# --------------------------------------------------------------------------- #


def test_submit_and_status_round_trip(service):
    client = ServiceClient(service.url)
    cell = make_cell()
    receipt = client.submit([cell])
    assert receipt["cells"] == 1
    sweep_id = str(receipt["id"])

    poll = client.events(sweep_id, cursor=0, timeout=15.0)
    assert poll["done"] and poll["state"] == "done"

    status = client.status(sweep_id)
    assert status["state"] == "done"
    assert status["completed_cells"] == 1
    assert status["retries"] == 0
    assert status["error"] is None
    # Done sweeps ship their flattened records — byte-comparable to a
    # local sequential run of the same cell.
    local = SequentialBackend().run_cells((cell,))
    assert status["records"] == [record.as_dict() for record in local]


def test_unknown_sweep_is_404_with_error_body(service):
    try:
        urllib.request.urlopen(f"{service.url}/sweeps/deadbeef", timeout=10)
    except urllib.error.HTTPError as error:
        assert error.code == 404
        assert "deadbeef" in json.loads(error.read())["error"]
    else:  # pragma: no cover
        pytest.fail("expected HTTP 404")


def test_unknown_route_is_404(service):
    try:
        urllib.request.urlopen(f"{service.url}/nope", timeout=10)
    except urllib.error.HTTPError as error:
        assert error.code == 404
    else:  # pragma: no cover
        pytest.fail("expected HTTP 404")


@pytest.mark.parametrize(
    "body",
    [
        b"",
        b"not json",
        b"[1, 2]",
        b'{"cells": []}',
        b'{"cells": [{"graph": {}}]}',
    ],
)
def test_malformed_submissions_are_400(service, body):
    request = urllib.request.Request(
        f"{service.url}/sweeps",
        method="POST",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        urllib.request.urlopen(request, timeout=10)
    except urllib.error.HTTPError as error:
        assert error.code == 400
        assert "error" in json.loads(error.read())
    else:  # pragma: no cover
        pytest.fail("expected HTTP 400")


def test_bad_default_shard_size_fails_at_construction():
    # Checked once, like a backend's shard_size: a daemon started with a bad
    # default would otherwise reject every submission that omits one.
    from repro.service import SweepService

    with pytest.raises(ConfigurationError, match="shard size"):
        SweepService(workers=1, default_shard_size="zero")


@pytest.mark.parametrize("interval", [2.9, True, False, "16", 0, -4])
@pytest.mark.parametrize("entry", ["backend", "post"])
def test_heartbeat_interval_is_validated_not_coerced(request, entry, interval):
    # One validator guards both ways in: backend construction (local or
    # service client) and the POST /sweeps body.  Nothing is coerced: int()
    # would turn 2.9 into 2 and True into 1.
    if entry == "backend":
        with pytest.raises(ConfigurationError, match="heartbeat_interval"):
            SequentialBackend(heartbeat_interval=interval)
        with pytest.raises(ConfigurationError, match="heartbeat_interval"):
            resolve_backend("batched", heartbeat_interval=interval)
        with pytest.raises(ConfigurationError, match="heartbeat_interval"):
            ServiceBackend("http://127.0.0.1:1", heartbeat_interval=interval)
        return
    service = request.getfixturevalue("service")
    payload = {
        "cells": cells_to_payload([make_cell()]),
        "heartbeat_interval": interval,
    }
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(service.url, "/sweeps", payload)
    assert excinfo.value.code == 400
    assert "heartbeat_interval" in json.loads(excinfo.value.read())["error"]


def test_submission_by_raw_json_matches_client(service):
    # The wire format is plain JSON: curl-level submissions must work.
    status, receipt = _post(
        service.url, "/sweeps", {"cells": cells_to_payload([make_cell()])}
    )
    assert status == 200
    poll = ServiceClient(service.url).events(str(receipt["id"]), timeout=15.0)
    assert poll["state"] == "done"


# --------------------------------------------------------------------------- #
# Event stream
# --------------------------------------------------------------------------- #


def test_event_stream_cursor_and_schema(service):
    client = ServiceClient(service.url)
    sweep_id = str(client.submit([make_cell(), make_cell(seeds=(9, 10))])["id"])
    events = []
    cursor = 0
    while True:
        poll = client.events(sweep_id, cursor=cursor, timeout=15.0)
        assert poll["cursor"] >= cursor
        events.extend(poll["events"])
        cursor = int(poll["cursor"])
        if poll["done"]:
            break
    kinds = [record["event"] for record in events]
    assert kinds.count("cell") == 2
    assert kinds[-1] == "summary"
    cell_events = [record for record in events if record["event"] == "cell"]
    for record in cell_events:
        # The telemetry JSONL schema, so `repro tail --url` renders them.
        for key in ("index", "total", "protocol", "graph", "mean_rounds",
                    "wall_seconds", "rounds_advanced"):
            assert key in record
    # Re-reading from cursor 0 replays the identical stream.
    replay = client.events(sweep_id, cursor=0, timeout=0.0)
    assert replay["events"] == events


def test_outcome_endpoint_rejects_bad_cell_index(service):
    client = ServiceClient(service.url)
    sweep_id = str(client.submit([make_cell()])["id"])
    client.events(sweep_id, timeout=15.0)  # wait for completion
    with pytest.raises(ServiceError) as excinfo:
        client.outcome(sweep_id, 5)
    assert "400" in str(excinfo.value)


# --------------------------------------------------------------------------- #
# Cancellation and drain
# --------------------------------------------------------------------------- #


def test_cancel_is_idempotent_and_reported(service):
    client = ServiceClient(service.url)
    sweep_id = str(client.submit([make_cell()])["id"])
    first = client.cancel(sweep_id)
    assert first["state"] in ("cancelled", "done")
    assert client.cancel(sweep_id)["state"] == first["state"]
    poll = client.events(sweep_id, timeout=5.0)
    assert poll["done"]


def test_draining_service_refuses_submissions(service):
    client = ServiceClient(service.url)
    service._draining = True  # what stop() sets before joining workers
    with pytest.raises(ServiceError) as excinfo:
        client.submit([make_cell()])
    assert "503" in str(excinfo.value) or "draining" in str(excinfo.value)
    assert client.healthz()["state"] == "draining"


def test_stop_drains_running_sweeps(tmp_path):
    from repro.service import SweepService

    with SweepService(workers=2) as daemon:
        client = ServiceClient(daemon.url)
        sweep_id = str(client.submit([make_cell(seeds=tuple(range(8)))])["id"])
        daemon.stop(drain=True, timeout=30.0)
        # The submitted sweep completed before shutdown.
        status = daemon.sweep_status(sweep_id)
        assert status["state"] == "done"
