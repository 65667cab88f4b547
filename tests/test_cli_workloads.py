"""Characterization tests for the five workload commands.

``run``, ``train``, ``serve``, ``fleet`` and ``fullgraph`` are driven
through :func:`repro.cli.main` with their observability and checkpoint
flags, and every observable outcome is compared with a committed golden
record (``tests/data/cli_workloads_golden.json``): the exit code, stdout,
stderr and every file the invocation wrote.

Text is compared exactly.  JSON documents (``--format json`` stdout,
exports, traces, snapshot streams, black-box dumps) and Prometheus
expositions are compared as parsed values with a 1e-9 relative float
tolerance, so the golden survives last-bit float differences between
numpy builds and a change in key order.  Checkpoint snapshots are pinned
by name here; their content is pinned by the resume tests, which compare
the resumed run's final snapshot payload with an uninterrupted run's.

Regenerate the golden record after an intended output change with::

    PYTHONPATH=src python tests/test_cli_workloads.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint.snapshot import read_snapshot
from repro.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_workloads_golden.json"

RULES = [
    {
        "name": "cold-cache",
        "metric": "report.gpu_cache_hit_ratio",
        "op": "<",
        "threshold": 0.95,
    },
    {
        "name": "serving-tail",
        "metric": "metrics.serving.p99.value",
        "op": ">",
        "threshold": 0.0001,
        "severity": "warn",
    },
]

RUN = ["run", "--dataset", "IGB-tiny", "--scale", "0.05", "--loader", "gids"]
TRAIN = [
    "train", "--scale", "0.05", "--batch-size", "32", "--hidden-dim", "8",
    "--classes", "3",
]
SERVE = [
    "serve", "--dataset", "IGB-tiny", "--scale", "0.05", "--requests",
    "100", "--rate", "3000", "--seed", "3",
]
FLEET = ["fleet", "--scale", "0.05", "--gpus", "2", "--batch-size", "16"]
FULLGRAPH = ["fullgraph", "--scale", "0.002", "--hbm-mb", "4"]

JSON = ["--format", "json"]
OUT = ["--format", "json", "-o", "{tmp}/export.json"]
STREAM = [
    "--stream", "{tmp}/snap.jsonl", "--prom", "{tmp}/metrics.prom",
    "--snapshot-every", "0.001",
]
TRACE = ["--trace", "{tmp}/trace.json"]
BLACKBOX = ["--alerts", "{tmp}/rules.json", "--blackbox", "{tmp}/box.json"]
CKPT = ["--checkpoint-dir", "{tmp}/ckpt", "--checkpoint-every", "3"]


def _iters(n: int) -> list[str]:
    return ["--iterations", str(n)]


def _kill_after(iteration: int):
    """A case step that deletes the snapshots written after ``iteration``,
    as if the process had died right after writing that one."""

    def kill(tmp: Path) -> None:
        for path in (tmp / "ckpt").glob("ckpt-*.bin"):
            if int(path.stem.split("-")[1]) > iteration:
                path.unlink()

    return kill


#: case name -> the invocations it runs in order, sharing one directory
#: (a callable step acts on that directory between invocations).
CASES: dict[str, list[list[str]]] = {
    "run-table": [RUN + _iters(10)],
    "run-json": [RUN + _iters(10) + JSON],
    "run-stream": [RUN + _iters(10) + STREAM + JSON],
    "run-trace": [RUN + _iters(10) + TRACE + JSON],
    "run-blackbox": [RUN + _iters(10) + BLACKBOX + JSON],
    "run-everything": [
        RUN + _iters(10) + STREAM + BLACKBOX + TRACE + JSON
    ],
    "run-resume": [
        RUN + _iters(10) + CKPT + JSON,
        _kill_after(6),
        RUN + _iters(10) + CKPT + ["--resume"] + JSON,
    ],
    "train-table": [TRAIN + _iters(10)],
    "train-stream": [TRAIN + _iters(10) + STREAM],
    "train-trace": [TRAIN + _iters(10) + TRACE],
    "train-blackbox": [TRAIN + _iters(10) + BLACKBOX],
    "train-resume": [
        TRAIN + _iters(10) + CKPT,
        _kill_after(6),
        TRAIN + _iters(10) + CKPT + ["--resume"],
    ],
    "train-restart": [TRAIN + _iters(6) + CKPT, TRAIN + _iters(4) + CKPT],
    "serve-table": [SERVE],
    "serve-json": [SERVE + OUT],
    "serve-stream": [SERVE + STREAM + OUT],
    "serve-trace": [SERVE + TRACE + OUT],
    "serve-blackbox": [SERVE + BLACKBOX + OUT],
    "fleet-table": [FLEET],
    "fleet-json": [FLEET + OUT],
    "fleet-stream": [FLEET + STREAM + OUT],
    "fleet-trace": [FLEET + TRACE + OUT],
    "fleet-blackbox": [FLEET + ["--blackbox", "{tmp}/box.json"] + OUT],
    "fullgraph-table": [FULLGRAPH + ["--epochs", "1"]],
    "fullgraph-json": [FULLGRAPH + ["--epochs", "1"] + OUT],
    "fullgraph-stream": [FULLGRAPH + ["--epochs", "1"] + STREAM + OUT],
    "fullgraph-trace": [FULLGRAPH + ["--epochs", "1"] + TRACE + OUT],
    "fullgraph-resume": [
        FULLGRAPH + ["--epochs", "1", "--steps", "4"] + CKPT,
        FULLGRAPH + ["--epochs", "1"] + CKPT + ["--resume"] + OUT,
    ],
    "fullgraph-restart": [
        FULLGRAPH + ["--epochs", "1", "--steps", "4"] + CKPT,
        FULLGRAPH + ["--epochs", "1", "--steps", "2"] + CKPT,
    ],
}


def _strip_version(value):
    """Drop ``repro_version`` keys so a release bump keeps the golden."""
    if isinstance(value, dict):
        return {
            k: _strip_version(v)
            for k, v in value.items()
            if k != "repro_version"
        }
    if isinstance(value, list):
        return [_strip_version(v) for v in value]
    return value


def _parse_prom(text: str) -> list:
    """Prometheus text as ``[series, value]`` pairs and comment lines."""
    lines: list = []
    for line in text.splitlines():
        if line.startswith("#") or " " not in line:
            lines.append(line)
        else:
            series, value = line.rsplit(" ", 1)
            lines.append([series, float(value)])
    return lines


def _canonical_trace(doc: dict) -> dict:
    """A Chrome trace with lanes keyed by name instead of thread id.

    Tracks outside the canonical lane list get their thread ids in set
    iteration order, which varies with the interpreter's hash seed.
    """
    names = {
        event["tid"]: event["args"]["name"]
        for event in doc["traceEvents"]
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    meta, events = [], []
    for event in doc["traceEvents"]:
        if event["name"] == "process_name":
            meta.append(event)
            continue
        event = {**event, "tid": names[event["tid"]]}
        if event["ph"] == "M":
            if event["name"] == "thread_sort_index":
                event.pop("args")
            meta.append(event)
        else:
            events.append(event)
    meta.sort(key=lambda event: (event["name"], str(event["tid"])))
    return {**doc, "traceEvents": meta + events}


def _decode(name: str, text: str):
    """Golden form of one output: parsed where the format allows."""
    if name.endswith("trace.json"):
        return {"trace": _canonical_trace(json.loads(text))}
    if name.endswith(".jsonl"):
        return {"jsonl": [_strip_version(json.loads(line))
                          for line in text.splitlines() if line]}
    if name.endswith(".json") or (name == "stdout" and text[:1] in "[{"):
        return {"json": _strip_version(json.loads(text))}
    if name.endswith(".prom"):
        return {"prom": _parse_prom(text)}
    return {"text": text}


def _run_case(case: str, tmp: Path, capsys) -> dict:
    """Run one case in ``tmp``; return its golden record."""
    (tmp / "rules.json").write_text(json.dumps(RULES))
    calls = []
    for argv in CASES[case]:
        if callable(argv):
            argv(tmp)
            continue
        code = main([arg.format(tmp=tmp) for arg in argv])
        captured = capsys.readouterr()
        calls.append(
            {
                "exit": code,
                "stdout": _decode(
                    "stdout", captured.out.replace(str(tmp), "<tmp>")
                ),
                "stderr": captured.err.replace(str(tmp), "<tmp>"),
            }
        )
    files = {}
    for path in sorted(tmp.rglob("*")):
        name = path.relative_to(tmp).as_posix()
        if path.is_dir() or name == "rules.json":
            continue
        if path.suffix == ".bin":
            files[name] = {"binary": True}
        else:
            text = path.read_text(encoding="utf-8")
            files[name] = _decode(name, text.replace(str(tmp), "<tmp>"))
    return {"calls": calls, "files": files}


def _assert_same(actual, expected, where: str = "") -> None:
    """Structural equality with a tight relative tolerance on floats."""
    if isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(actual, (int, float)) and isinstance(
            expected, (int, float)
        ), f"{where}: {actual!r} != {expected!r}"
        assert math.isclose(
            actual, expected, rel_tol=1e-9, abs_tol=1e-15
        ), f"{where}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{where}: not an object"
        assert sorted(actual) == sorted(expected), (
            f"{where}: keys differ: {sorted(set(actual) ^ set(expected))}"
        )
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{where}: not a list"
        assert len(actual) == len(expected), (
            f"{where}: length {len(actual)} != {len(expected)}"
        )
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{index}]")
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, golden, tmp_path, capsys):
    _assert_same(_run_case(case, tmp_path, capsys), golden[case], case)


@pytest.mark.parametrize(
    "case", ["run-stream", "serve-stream", "fullgraph-stream"]
)
def test_last_snapshot_is_at_final_clock(case, tmp_path, capsys):
    record = _run_case(case, tmp_path, capsys)
    stamps = [
        line["modeled_time_s"]
        for line in record["files"]["snap.jsonl"]["jsonl"]
    ]
    assert len(stamps) > 1
    assert stamps == sorted(stamps)
    if case == "run-stream":
        (export,) = record["calls"][-1]["stdout"]["json"]
    else:
        export = record["files"]["export.json"]["json"]
    assert stamps[-1] == export["telemetry"]["clock_s"]


@pytest.mark.parametrize("case", ["run-blackbox", "train-blackbox",
                                  "serve-blackbox"])
def test_fired_rule_dumps_blackbox(case, tmp_path, capsys):
    record = _run_case(case, tmp_path, capsys)
    assert "wrote flight-recorder dump" in record["calls"][-1]["stderr"]
    box = record["files"]["box.json"]["json"]
    assert box["trigger"].startswith("slo breach:")


def _same_state(a, b) -> bool:
    """Exact equality of two snapshot payloads (numpy arrays included)."""
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_same_state(a[k], b[k]) for k in a)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same_state(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    return bool(a == b) or (a != a and b != b)


def _uninterrupted(case: str) -> list[str]:
    """The resumed case's last invocation without ``--resume``."""
    return [a for a in CASES[case][-1] if a != "--resume"]


@pytest.mark.parametrize("case", ["run-resume", "train-resume",
                                  "fullgraph-resume"])
def test_resume_ends_equal_to_uninterrupted_run(case, tmp_path, capsys):
    resumed = tmp_path / "resumed"
    straight = tmp_path / "straight"
    resumed.mkdir()
    straight.mkdir()
    record = _run_case(case, resumed, capsys)
    assert main([a.format(tmp=straight) for a in _uninterrupted(case)]) == 0
    out = capsys.readouterr().out
    final = sorted((resumed / "ckpt").iterdir())[-1].name
    assert _same_state(
        read_snapshot(str(resumed / "ckpt" / final)),
        read_snapshot(str(straight / "ckpt" / final)),
    )
    last = record["calls"][-1]
    if case == "run-resume":
        resumed_doc = last["stdout"]["json"]
        straight_doc = _strip_version(json.loads(out))
        resumed_doc.pop("checkpoint_summary")
        straight_doc.pop("checkpoint_summary")
        assert resumed_doc == straight_doc
    elif case == "train-resume":
        keep = ("trained", "final training accuracy")
        assert [
            line for line in last["stdout"]["text"].splitlines()
            if line.startswith(keep)
        ] == [line for line in out.splitlines() if line.startswith(keep)]
    else:
        assert record["files"]["export.json"]["json"] == _strip_version(
            json.loads((straight / "export.json").read_text())
        )


def _regenerate() -> None:
    """Rewrite the golden record from the current code."""
    import tempfile

    class _Capture:
        """Minimal stand-in for pytest's ``capsys`` outside pytest."""

        def __init__(self):
            import io
            import sys

            self._sys = sys
            self._out = io.StringIO()
            self._err = io.StringIO()
            sys.stdout, sys.stderr = self._out, self._err

        def readouterr(self):
            out, err = self._out.getvalue(), self._err.getvalue()
            self._out.seek(0)
            self._out.truncate()
            self._err.seek(0)
            self._err.truncate()
            return type("Captured", (), {"out": out, "err": err})

        def close(self):
            self._sys.stdout = self._sys.__stdout__
            self._sys.stderr = self._sys.__stderr__

    golden = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            capture = _Capture()
            try:
                golden[case] = _run_case(case, Path(tmp), capture)
            finally:
                capture.close()
        print(f"recorded {case}")
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    _regenerate()
