"""Self-tests of the benchmark: its reference, its stored exact bounds,
its tracer and its comparison rule.

    python3 -m pytest bench/tests -q

The count test runs two traced passes of every workload (about a minute).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import compare
import reference as ref
import run
import tracing
import workloads as wl

qkshots, oracles = run.load_program()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_reference_matches_dense_oracles(n):
    points = ref.prepared_features(wl.two_gaussian(12, seed=n)[0])
    psi = ref.states(points, n)
    comps = ref.components(psi, n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i in (0, 7):
        dense = oracles.embedding_unitary(points[i, :n], n, 2, pairs)[:, 0]
        assert np.allclose(psi[i], dense, atol=1e-12)
        for k in range(n):
            rho = oracles.dense_partial_trace(dense, n, k)
            d, re, im = comps[i, k]
            assert np.allclose(rho, [[d, re + 1j * im], [re - 1j * im, 1 - d]], atol=1e-12)


def test_stored_exact_bounds_are_minimal():
    # the log-space oracle is slow, so only the cases with small N
    rows = json.loads((checks.REFERENCE_DIR / "exact_ca.json").read_text())
    assert [r["case"] for r in rows] == [c["case"] for c in wl.exact_ca_cases()]
    checked = 0
    for row in rows:
        if row["n"] > 5000:
            continue
        p = row["p"]
        if row["p_error"]:
            mixed = 2.0 ** -row["n_qubits"] if row["family"] == "fidelity" else 0.5
            p = (1 - row["p_error"]) * p + row["p_error"] * mixed
        n = row["n"]
        assert oracles.correct_side_probability(n, p, row["mu"]) >= row["p_ca"]
        assert all(oracles.correct_side_probability(k, p, row["mu"]) < row["p_ca"]
                   for k in range(max(1, n - 3), n))
        checked += 1
    assert checked >= 10


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        tracing.Span(1, "root", 0.0, 10.0, None, 0),
        tracing.Span(2, "a", 1.0, 5.0, 1, 1),
        tracing.Span(3, "a", 3.0, 7.0, 1, 2),  # overlaps span 2 on another thread
        tracing.Span(4, "b", 4.0, 4.5, 3, 2),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 4.0, 2: 4.0, 3: 3.5, 4: 0.5})


def test_verdict_rule():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert compare.verdict(base, [b * 0.8 for b in base], bound=0.1) == "improved"
    assert compare.verdict(base, [b * 1.2 for b in base], bound=0.1) == "worse"
    assert compare.verdict(base, list(base), bound=0.1) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, list(reversed(noisy)), bound=0.1) == "unresolved"
    assert compare.verdict([3, 3, 3], [3, 3, 3]) == "unchanged"
    assert compare.verdict([3, 3, 3], [4, 4, 4], better="higher") == "improved"


def test_benchmark_files_cover_nested_files_and_spec(tmp_path):
    sides = []
    for side in ("base", "change"):
        root = tmp_path / side
        (root / "bench" / "reference").mkdir(parents=True)
        (root / "bench" / "__pycache__").mkdir()
        (root / "BENCHMARK.json").write_text('{"paths": ["bench"]}')
        (root / "bench" / "reference" / "values.json").write_text("[1]")
        (root / "bench" / "__pycache__" / "run.pyc").write_text(side)
        sides.append(root)
    assert compare.benchmark_files(sides[0]) == compare.benchmark_files(sides[1])
    (sides[1] / "bench" / "reference" / "values.json").write_text("[2]")
    assert compare.benchmark_files(sides[0]) != compare.benchmark_files(sides[1])
    (sides[1] / "bench" / "reference" / "values.json").write_text("[1]")
    (sides[1] / "BENCHMARK.json").write_text('{"paths": ["bench"] }')
    assert compare.benchmark_files(sides[0]) != compare.benchmark_files(sides[1])


def _traced_counts(runner, checker):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.run(tracer)
    finally:
        tracer.uninstall()
    runner.check(checker)
    assert not tracer.missing
    metrics = tracing.layer_metrics(tracer.spans)
    rows = run.step_report(runner.workload, tracer.spans)
    return {k: metrics[k] for k in tracing.COUNTS}, rows


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path):
    workload, data = wl.build(name, tmp_path, seed=5)
    checker = checks.Checker(data, oracles)
    runner = run.Passes(workload, tmp_path, qkshots, seed=5)
    first, rows = _traced_counts(runner, checker)
    second, _ = _traced_counts(runner, checker)
    assert first == second
    assert checker.failed == 0, checker.failures
    # the traced and untraced passes wrote the same bytes
    assert runner.prints[0] == runner.prints[1]
    ratios = {row["step"]: row["embeds_per_point"] for row in rows}
    if name == "size-sweep":
        assert ratios["kernels-fidelity-exact"] == ratios["kernels-projected-sampled"] == 1.0
        assert ratios["sweep-projected"] == 2.0
    # the unwrapped functions are back in place after uninstall
    assert qkshots.cli.sweep is qkshots.scaling.sweep
    assert not hasattr(qkshots.kernels.embed, "__wrapped__")


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.SCORED)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracing.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
