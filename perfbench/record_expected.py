"""Rewrite the per-seed tag tables in expected.json.

    python3 perfbench/record_expected.py [count]

Classifies instance seeds 0..count-1 (default 1000) of every seeded workload
with the benchmark's own examine path and records each tag, or '?' for an
instance that reached the time limit.  Certificates are validated on every
instance, so a recorded tag is one the program proved.  The K5 pass totals
are the paper's counts and are not rewritten.
"""

import json
import sys

import run


def tags_by_seed(bench: run.Bench, count: int) -> str:
    tags = []
    for seed in range(count):
        one = bench.run(seed, seconds=0, count=1)
        if one.wrong:
            raise SystemExit(f"seed {seed}: {one.wrong}")
        tags.append(next(iter(one.tags), "?"))
    return "".join(tags)


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    pcg = run.load_pcgraph()
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    for name, workload in run.WORKLOADS.items():
        if workload.seeded:
            expected[name] = {"tags_by_seed": tags_by_seed(run.Bench(pcg, workload, {}), count)}
            print(name, expected[name]["tags_by_seed"].count("?"), "unknown", flush=True)
    path.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
