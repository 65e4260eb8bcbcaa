"""The live ``/metrics`` + ``/healthz`` endpoint, over real sockets."""

from __future__ import annotations

import json

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig
from repro.obs import parse_openmetrics


async def _get(host: str, port: int, path: str,
               method: str = "GET") -> tuple[int, str]:
    import asyncio
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"{method} {path} HTTP/1.1\r\n"
                 f"Host: {host}\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body.decode("utf-8")


@pytest.fixture(scope="module")
def scraped():
    """Run a short live cluster and scrape it mid-run."""
    responses: dict[str, tuple[int, str]] = {}
    tasks = []
    sc = Scenario(nodes=3, seed=9, backend="live",
                  dmon=DMonConfig(poll_interval=0.2)) \
        .with_observability(sample_interval=0.2, scrape_port=0)

    def hook(scenario: Scenario) -> None:
        import asyncio

        async def fetch() -> None:
            # Servers bind after setup hooks run; wait for the port,
            # then let a few polls land before scraping.
            await asyncio.sleep(0.8)
            host, port = scenario.scrape.address
            for path in ("/metrics", "/healthz", "/nope"):
                responses[path] = await _get(host, port, path)
            responses["POST /metrics"] = await _get(
                host, port, "/metrics", method="POST")
        # Held: the loop keeps tasks weakly and a client stream reader
        # is held weakly by its protocol, so a GC pass during the read
        # would collect the pending fetch.
        tasks.append(asyncio.get_event_loop().create_task(fetch()))

    sc.with_setup(hook)
    sc.run(2.0)
    return sc, responses


class TestScrapeEndpoint:
    def test_metrics_route_serves_valid_openmetrics(self, scraped):
        _, responses = scraped
        status, body = responses["/metrics"]
        assert status == 200
        sc, _ = scraped
        families = parse_openmetrics(body)
        polls = families["repro_dmon_polls"]["samples"]
        assert {s.labels["node"] for s in polls} \
            == set(sc.nodes.names)
        assert all(s.value > 0 for s in polls)

    def test_metrics_include_health_gauges(self, scraped):
        _, responses = scraped
        families = parse_openmetrics(responses["/metrics"][1])
        assert "repro_healthy" in families
        assert "repro_health_ok" in families

    def test_healthz_route(self, scraped):
        _, responses = scraped
        status, body = responses["/healthz"]
        assert status == 200
        verdict = json.loads(body)
        assert verdict["healthy"] is True
        assert {row["rule"] for row in verdict["rules"]} \
            == {"delivery-latency-p99", "drop-burn",
                "monitor-cpu-burn"}

    def test_unknown_route_404(self, scraped):
        _, responses = scraped
        assert responses["/nope"][0] == 404

    def test_non_get_405(self, scraped):
        _, responses = scraped
        assert responses["POST /metrics"][0] == 405

    def test_hits_counted_per_path(self, scraped):
        sc, _ = scraped
        # Rejected methods never reach the router, so POST /metrics
        # is not counted.
        assert sc.scrape.hits["/metrics"] == 1
        assert sc.scrape.hits["/healthz"] == 1
        assert sc.scrape.hits["/nope"] == 1

    def test_sampler_ran_on_the_live_clock(self, scraped):
        sc, _ = scraped
        assert sc.obs.samples_taken >= 5
        assert len(sc.obs.tsdb.keys("dmon.polls")) == 3
