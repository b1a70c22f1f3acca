"""Write goldens.json: the expected outputs the benchmark checks against.

    python3 perfbench/record_goldens.py

Records the digest of every cli catalog query's output and of the
deterministic part (every field but ``elapsed``) of each sweep
report, at full and smoke sizes.  Run it only when the program's output is
meant to change; a regression must not be recorded as the new golden.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    goldens: dict[str, dict[str, str]] = {"cli": {}, "records": {}}
    for argv in workloads.CLI_CATALOG:
        _, code, stdout = run.run_query(argv)
        if code != 0:
            raise SystemExit(f"query failed with exit {code}: {argv}")
        goldens["cli"][workloads.query_key(argv)] = workloads.output_digest(argv, stdout)
    for smoke in (False, True):
        for name in workloads.WORKLOADS:
            spec = workloads.workload(name, smoke)
            if spec.kind == "cli":
                continue
            result, problem = run.spawn_worker("run", name, 0, smoke)
            if problem or not result["ok"] or result["records"] != spec.records:
                raise SystemExit(f"{name} (smoke={smoke}) is not a valid golden: "
                                 f"{problem or result['failures'] or result['records']}")
            goldens["records"][run.golden_name(name, smoke)] = result["digest"]
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
