"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

- every workload runs end to end at a tiny scale and reports every metric;
- the output checks fail on a corrupted window payload or row count;
- without the program next to it the benchmark fails and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: str = ROOT, timeout: float = 170) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_layer_metric(workload):
    p = _bench("--workload", workload, "--seed", "3", "--seconds", "2",
               "--trace", "1", "--scale", "0.05")
    assert p.returncode == 0, p.stdout + p.stderr
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    names = set(workloads.LAYER_UNITS)
    assert set(out["metrics"]) == names
    for name, m in out["metrics"].items():
        assert m["unit"] == workloads.LAYER_UNITS[name]
        assert np.isfinite(m["value"])
    assert out["metrics"]["trace.traced_rows_per_s"]["value"] > 0


def test_tiny_timed_run_reports_end_to_end_metrics():
    p = _bench("--workload", "cm_tumbling_ingest", "--seed", "4", "--seconds", "2",
               "--trace", "0", "--scale", "0.05")
    assert p.returncode == 0, p.stdout + p.stderr
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


# -- the output checks catch corruption -------------------------------------


@pytest.fixture(scope="module")
def tiny_stream(tmp_path_factory):
    from condor_ray.sources.transcripts import (
        generate_stream_fixture,
        transcript_fragments,
    )

    d = tmp_path_factory.mktemp("fixture")
    generate_stream_fixture(n_rows=20_000, n_convs=40, seed=5, n_fragments=8,
                            out_dir=str(d), columns=("conv_id", "turn_idx", "ts"))
    return reference.load_fragments(transcript_fragments(str(d)), with_value=True)


def _emit_like_engine(frags, size_us, slide_us, make):
    """The emitted table a correct engine produces, from the reference."""
    rows, _ = reference.drop_late(frags, int(np.gcd(size_us, slide_us)))
    starts, counts, payloads = [], [], []
    for ws, keys, _ in reference.window_groups(rows, size_us, slide_us):
        syn = make()
        syn.update_batch(keys)
        starts.append(ws)
        counts.append(len(keys))
        payloads.append(syn.to_bytes())
    return pa.table({
        "window_start": pa.array(starts, type=pa.int64()),
        "window_end": pa.array([s + size_us for s in starts], type=pa.int64()),
        "n_rows": pa.array(counts, type=pa.int64()),
        "payload": pa.array(payloads, type=pa.binary()),
    })


def _replace(table: pa.Table, column: str, i: int, value) -> pa.Table:
    vals = table[column].to_pylist()
    vals[i] = value
    idx = table.schema.get_field_index(column)
    return table.set_column(idx, column, pa.array(vals, type=table[column].type))


@pytest.mark.parametrize("kind", ["cm_tumbling", "hll_sliding"])
def test_check_fails_on_corrupted_window(tiny_stream, kind):
    from condor_ray.synopses import HyperLogLogSketch, Synopsis

    if kind == "cm_tumbling":
        size, slide, make = 60_000_000, 60_000_000, workloads.dense_count_min
    else:
        size, slide = 5_000_000, 2_500_000
        make = lambda: HyperLogLogSketch(16, 7)  # noqa: E731
    _, late = reference.drop_late(tiny_stream, int(np.gcd(size, slide)))
    good = _emit_like_engine(tiny_stream, size, slide, make)
    assert good.num_rows > 2 and late > 0
    bad = reference.check_mergeable(good, tiny_stream, size, slide, make, late)[0]
    assert bad == []

    i = good.num_rows // 2
    syn = Synopsis.from_bytes(good["payload"][i].as_py())
    if kind == "cm_tumbling":
        syn.array[0, 0] += 1
    else:
        syn.registers[np.argmin(syn.registers)] += 1
    corrupted = _replace(good, "payload", i, syn.to_bytes())
    bad = reference.check_mergeable(corrupted, tiny_stream, size, slide, make, late)[0]
    assert any("counters differ" in b for b in bad)

    miscounted = _replace(good, "n_rows", i, good["n_rows"][i].as_py() + 1)
    bad = reference.check_mergeable(miscounted, tiny_stream, size, slide, make, late)[0]
    assert any("n_rows" in b for b in bad)

    missing = good.slice(1)
    bad = reference.check_mergeable(missing, tiny_stream, size, slide, make, late)[0]
    assert any("missing" in b for b in bad)

    bad = reference.check_mergeable(good, tiny_stream, size, slide, make, late + 1)[0]
    assert any("late rows" in b for b in bad)


def test_wavelet_check_fails_on_wrong_row_count(tiny_stream):
    from condor_ray.synopses import DistributedWaveletsManager, WaveletSynopsis

    size = 60_000_000
    rows, late = reference.drop_late(tiny_stream, size)
    starts, counts, payloads = [], [], []
    for ws, _, vals in reference.window_groups(rows, size, size):
        mgr = DistributedWaveletsManager(0, None)
        for part in (vals[0::2], vals[1::2]):
            w = WaveletSynopsis(1024)
            w.update_batch(part)
            mgr.add_synopsis(w)
        starts.append(ws)
        counts.append(len(vals))
        payloads.append(mgr.to_bytes())
    good = pa.table({
        "window_start": pa.array(starts, type=pa.int64()),
        "n_rows": pa.array(counts, type=pa.int64()),
        "payload": pa.array(payloads, type=pa.binary()),
    })
    assert reference.check_wavelet(good, tiny_stream, size, late) == []
    wrong = _replace(good, "n_rows", 0, counts[0] - 1)
    assert any("n_rows" in b for b in reference.check_wavelet(wrong, tiny_stream, size, late))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    p = _bench("--workload", "cm_tumbling_ingest", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=str(tmp_path), timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
