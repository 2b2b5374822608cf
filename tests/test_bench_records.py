"""The committed benchmark records: BENCH_1.json, BENCH_2.json, ... at the
root of the repository, each naming the one before it and summing up every
end-to-end metric of BENCHMARK.json for each workload it ran."""

import json
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return json.load(fh)


def _records():
    numbers = sorted(int(m.group(1)) for m in map(re.compile(r"BENCH_(\d+)\.json$").match,
                                                  os.listdir(ROOT)) if m)
    return [(n, _load(f"BENCH_{n}.json")) for n in numbers]


def test_records_are_numbered_in_a_chain():
    records = _records()
    assert [n for n, _ in records] == list(range(1, len(records) + 1))
    for n, record in records:
        assert record["bench"] == n
        assert record["previous"] == (f"BENCH_{n - 1}.json" if n > 1 else None)


def test_every_record_sums_up_the_end_to_end_metrics_of_known_workloads():
    spec = _load("BENCHMARK.json")
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = [m["name"] for m in spec["end_to_end"]]
    for n, record in _records():
        assert record["trace0"], n
        for entry in record["trace0"]:
            assert entry["workload"] in workloads, (n, entry["workload"])
            for metric in metrics:
                median = entry["median"][metric]
                lo, hi = entry["quartiles"][metric]
                assert lo <= median <= hi, (n, entry["workload"], metric)
