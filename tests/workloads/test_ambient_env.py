"""A run is a function of its arguments, not of the environment.

``REPRO_TIER2_THRESHOLD`` once reached every engine whose job left
``tier2_threshold`` unset, so one job gave different simulated cycles
depending on the environment of the process that ran it (a blackscholes
job: 41,939 cycles unset, 8,150 with the variable at ``1``).  The
variable is gone; these tests set it anyway and require it to change
nothing, locally and through a served job.
"""

import dataclasses

from repro import api
from repro.serve import ReproServer, ServeClient, ServeConfig

JOB = api.kernel_job(
    dataclasses.replace(api.SPEC_BY_NAME["blackscholes"], iterations=48),
    variant="risotto", seed=11)
#: Host-timed fields of a job result (the rest is spec-determined).
TIMED = ("wall_seconds", "queue_seconds")


def _untimed(result) -> dict:
    payload = result.to_json()
    for key in TIMED:
        del payload[key]
    return payload


def test_tier2_env_does_not_reach_a_job(monkeypatch):
    monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "1")
    ambient = api.deterministic_row(api.execute_spec(JOB))
    monkeypatch.delenv("REPRO_TIER2_THRESHOLD")
    plain = api.deterministic_row(api.execute_spec(JOB))
    assert ambient == plain
    assert plain.tier2_traces == 0


def test_served_job_ignores_the_server_env(monkeypatch):
    monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "1")
    server = ReproServer(ServeConfig(port=0, workers=0))
    server.start_background()
    try:
        client = ServeClient(*server.address)
        try:
            served = client.submit(JOB)
        finally:
            client.close()
    finally:
        server.close()
    monkeypatch.delenv("REPRO_TIER2_THRESHOLD")
    assert served.ok, served.error
    assert _untimed(served) == _untimed(api.submit(JOB))
