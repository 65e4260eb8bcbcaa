"""Unit tests for the dynamic filter manager."""

from __future__ import annotations

import pytest

from repro.dproc import MetricId, filters
from repro.dproc.filters import FilterManager
from repro.ecode import MetricRecord
from repro.errors import FilterDeploymentError
from repro.harness.livecli import HALVING_FILTER


PASS_LOADAVG = """
{
    int i = 0;
    if (input[LOADAVG].value > 2) {
        output[i] = input[LOADAVG];
        i = i + 1;
    }
}
"""


@pytest.fixture
def manager(cluster3):
    return FilterManager(cluster3["alan"])


class TestDeployment:
    def test_deploy_compiles_and_registers(self, manager):
        deployed = manager.deploy(PASS_LOADAVG, scope="*")
        assert len(manager) == 1
        assert manager.global_filter is deployed
        assert deployed.compiled is not None

    def test_auto_ids_unique(self, manager):
        a = manager.deploy(PASS_LOADAVG, scope="cpu")
        b = manager.deploy(PASS_LOADAVG, scope="mem")
        assert a.filter_id != b.filter_id

    def test_same_scope_replaces(self, manager):
        manager.deploy(PASS_LOADAVG, scope="*", filter_id="old")
        manager.deploy(PASS_LOADAVG, scope="*", filter_id="new")
        assert len(manager) == 1
        assert manager.global_filter.filter_id == "new"

    def test_duplicate_id_rejected(self, manager):
        manager.deploy(PASS_LOADAVG, scope="*", filter_id="f")
        with pytest.raises(FilterDeploymentError, match="already"):
            manager.deploy(PASS_LOADAVG, scope="cpu", filter_id="f")

    def test_syntax_error_becomes_deployment_error(self, manager):
        with pytest.raises(FilterDeploymentError, match="compile"):
            manager.deploy("int x = ;", scope="*")

    def test_type_error_becomes_deployment_error(self, manager):
        with pytest.raises(FilterDeploymentError, match="compile"):
            manager.deploy("output[0] = 5;", scope="*")

    def test_compile_charges_cpu(self, env, cluster3):
        node = cluster3["alan"]
        manager = FilterManager(node)
        manager.deploy(PASS_LOADAVG, scope="*")
        env.run(until=1.0)
        node.cpu.settle()
        assert node.cpu.busy_cpu_seconds \
            == pytest.approx(node.costs.filter_compile)

    def test_remove(self, manager):
        manager.deploy(PASS_LOADAVG, scope="*", filter_id="f")
        manager.remove("f")
        assert len(manager) == 0
        assert manager.global_filter is None

    def test_remove_unknown_rejected(self, manager):
        with pytest.raises(FilterDeploymentError):
            manager.remove("ghost")


class TestExecution:
    def test_run_filters_records(self, env, manager):
        deployed = manager.deploy(PASS_LOADAVG, scope="*")
        records = manager.input_array(
            {MetricId.LOADAVG: 3.0}, {}, env.now)
        result = manager.run(deployed, records)
        assert [o.name for o in result.outputs] == ["loadavg"]
        assert result.emitted == []
        assert deployed.invocations == 1
        assert deployed.total_outputs == 1
        assert deployed.total_emitted == 0

    def test_run_blocks_when_condition_false(self, env, manager):
        deployed = manager.deploy(PASS_LOADAVG, scope="*")
        records = manager.input_array(
            {MetricId.LOADAVG: 0.5}, {}, env.now)
        assert manager.run(deployed, records).outputs == []

    def test_runtime_error_counted_not_raised(self, env, manager):
        deployed = manager.deploy("{ return 1 / input[0].value; }",
                                  scope="*")
        records = manager.input_array({MetricId.LOADAVG: 0.0}, {},
                                      env.now)
        # value is 0.0 -> int/double division by zero inside filter
        result = manager.run(deployed, records)
        assert result.outputs == []
        assert deployed.errors == 1

    def test_input_array_is_dense_and_indexed(self, env, manager):
        records = manager.input_array(
            {MetricId.FREEMEM: 123.0}, {MetricId.FREEMEM: 100.0},
            env.now)
        assert len(records) == max(int(m) for m in MetricId) + 1
        rec = records[int(MetricId.FREEMEM)]
        assert rec.value == 123.0
        assert rec.last_value_sent == 100.0
        assert rec.name == "freemem"
        # uncollected metric defaults to zero
        assert records[int(MetricId.NET_RTT)].value == 0.0

    def test_last_value_sent_drives_differential_logic(self, env,
                                                       manager):
        src = """
        {
            if (input[FREEMEM].value <
                input[FREEMEM].last_value_sent * 0.9) {
                output[0] = input[FREEMEM];
            }
        }
        """
        deployed = manager.deploy(src, scope="mem")
        stable = manager.input_array({MetricId.FREEMEM: 95.0},
                                     {MetricId.FREEMEM: 100.0}, env.now)
        assert manager.run(deployed, stable).outputs == []
        dropped = manager.input_array({MetricId.FREEMEM: 80.0},
                                      {MetricId.FREEMEM: 100.0}, env.now)
        assert len(manager.run(deployed, dropped).outputs) == 1

    def test_a_filter_builds_only_the_records_it_reads(self, env, manager,
                                                       monkeypatch):
        built = []

        class Counted(MetricRecord):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.name)

        monkeypatch.setattr(filters, "MetricRecord", Counted)
        deployed = manager.deploy(HALVING_FILTER, scope="cpu")
        records = manager.input_array({MetricId.LOADAVG: 3.0}, {},
                                      env.now)
        [out] = manager.run(deployed, records).outputs
        assert (out.name, out.value) == ("loadavg", 1.5)
        assert built == ["loadavg"]
        # A second filter of the same poll reads the same record.
        manager.run(deployed, records)
        assert built == ["loadavg"]

    def test_every_slot_is_the_eagerly_built_record(self, env, manager):
        samples = {MetricId.LOADAVG: 2.5, MetricId.FREEMEM: 7e8,
                   MetricId.NET_USED: 12.0}
        last_sent = {MetricId.FREEMEM: 6e8, MetricId.DISKUSAGE: 3.0}
        eager = [MetricRecord(name=m.name.lower(),
                              value=float(samples.get(m, 0.0)),
                              last_value_sent=float(last_sent.get(m, 0.0)),
                              timestamp=env.now)
                 for m in map(MetricId, range(max(MetricId) + 1))]
        records = manager.input_array(samples, last_sent, env.now)
        assert len(records) == len(eager)
        assert [records[i] for i in range(len(eager))] == eager
        assert list(records) == eager
        assert records[-1] == eager[-1] and records[2:5] == eager[2:5]
        with pytest.raises(IndexError):
            records[len(eager)]
        with pytest.raises(TypeError):
            records[0] = eager[0]
