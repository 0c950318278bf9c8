"""Self-checks of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Every wrapped name must record spans on the workload the layer table assigns
it to, and a name a refactor deletes must come out as missing, never as a
crash or a silent zero.
"""

import pytest

import groundlab.cli  # noqa: F401  (binds every module the tracer patches)
import workloads as wl
from iteration import run_iteration
from tracer import PER_LAYER, TARGETS, Target, Tracer, layer_values


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run of every workload at the default seed."""
    out = {}
    for workload in wl.WORKLOADS:
        tracer = Tracer().install()
        try:
            result = run_iteration(workload, wl.DEFAULT_SEED,
                                   tmp_path_factory.mktemp(workload), tracer)
        finally:
            tracer.uninstall()
        out[workload] = (tracer, result)
    return out


def _span_workloads():
    """Span name -> workload, from the layer table's span sources."""
    owner = {}
    for _, _, workload, source in PER_LAYER:
        kind, _, arg = source.partition(":")
        if kind in ("busy", "self", "calls") and workload != "all":
            owner.setdefault(arg, workload)
    return owner


def test_every_target_is_in_the_layer_table():
    spans = _span_workloads()
    assert {t.name for t in TARGETS} - {"cli.main"} == set(spans)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_is_correct_and_complete(traced, workload):
    tracer, result = traced[workload]
    assert [j for j in result["jobs"] if j["error"]] == []
    assert tracer.missing == {}
    stats = tracer.span_stats()
    for span, owner in _span_workloads().items():
        if owner == workload:
            assert stats[span]["calls"] >= 1, span
    assert stats["cli.main"]["calls"] >= 1
    for name, _, owner, source in PER_LAYER:
        if owner == workload or (owner == "all" and source != "ext:overhead_s"):
            assert result["layers"][name], name


def test_missing_function_is_reported_not_zero(monkeypatch, tmp_path):
    import groundlab.measures as measures
    monkeypatch.delattr(measures, "mix")
    tracer = Tracer().install()
    try:
        values = layer_values(tracer, {})
    finally:
        tracer.uninstall()
    assert "measures.mix" in tracer.missing
    assert values["measures.mix.calls"] is None
    assert values["measures.mix.busy_s"] is None
    assert values["machines.run.calls"] == 0


def test_missing_method_module_and_counter_field():
    def count_steps(tracer, result, arguments):
        tracer.counters["probe.steps"] += result.steps

    targets = (Target("gibbs", "TorusConfig.no_such_method"),
               Target("no_such_module", "f"),
               Target("layers", "freq_table_float", count_steps,
                      ("probe.steps",)))
    tracer = Tracer(targets).install()
    try:
        from groundlab.layers import freq_table_float
        assert len(freq_table_float(4)) == 5  # a bad counter never breaks a call
    finally:
        tracer.uninstall()
    assert set(tracer.missing) == {"gibbs.TorusConfig.no_such_method",
                                   "no_such_module.f", "probe.steps"}
    assert tracer.span_stats()["layers.freq_table_float"]["calls"] == 1


def test_names_are_patched_in_every_binding_and_restored():
    from groundlab import cli, measures, perturbation, robinson
    original = measures.weak_star_distance
    tracer = Tracer().install()
    try:
        assert cli.build_tileset is robinson.build_tileset
        assert cli.build_tileset.__wrapped__ is not None
        assert perturbation.word_measure.__wrapped__ is not None
        net = measures.greedy_net.__wrapped__
        assert net.__defaults__[0] is measures.weak_star_distance
        assert measures.weak_star_distance is not original
    finally:
        tracer.uninstall()
    assert measures.weak_star_distance is original
    assert measures.greedy_net.__defaults__[0] is original
    assert not hasattr(cli.build_tileset, "__wrapped__")


def test_self_and_busy_time_from_spans():
    tracer = Tracer(())
    tracer.names[:] = ["a", "b"]
    # a [0,100] holds b [10,30] and b [40,70]; b [40,70] holds a [45,55]
    for start, end, parent, nid in ((0, 100, -1, 0), (10, 30, 0, 1),
                                    (40, 70, 0, 1), (45, 55, 2, 0)):
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.name_id.append(nid)
        tracer.run.append(0)
    stats = tracer.span_stats()
    assert stats["a"]["calls"] == 2 and stats["b"]["calls"] == 2
    assert stats["a"]["busy_s"] * 1e9 == pytest.approx(100)  # outermost only
    assert stats["a"]["self_s"] * 1e9 == pytest.approx(50 + 10)
    assert stats["b"]["busy_s"] * 1e9 == pytest.approx(50)
    assert stats["b"]["self_s"] * 1e9 == pytest.approx(20 + 20)


def test_counts_repeat_exactly(traced, tmp_path):
    from run import EXACT_COUNTS
    tracer = Tracer().install()
    try:
        again = run_iteration("gibbs-local", wl.DEFAULT_SEED, tmp_path, tracer)
    finally:
        tracer.uninstall()
    first = traced["gibbs-local"][1]["layers"]
    for name in EXACT_COUNTS:
        assert again["layers"][name] == first[name], name
