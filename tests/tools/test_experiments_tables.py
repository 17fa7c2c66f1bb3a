"""EXPERIMENTS.md tables agree with the committed artifacts they cite."""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]

_ROW = re.compile(r"^\| `([\w-]+)` \| ([\d ]+) \|")


def _section(text, heading):
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:end if end != -1 else len(text)]


def test_kernel_table_events_match_bench_kernel():
    section = _section((ROOT / "EXPERIMENTS.md").read_text(),
                       "## Kernel throughput")
    table = {match.group(1): int(match.group(2).replace(" ", ""))
             for match in map(_ROW.match, section.splitlines()) if match}
    artifact = json.loads(
        (ROOT / "benchmarks" / "results" / "BENCH_kernel.json").read_text())
    assert table == {point: row["events_processed"]
                     for point, row in artifact["metrics"].items()}
