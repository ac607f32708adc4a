"""Record reference.json: the exact stdout and exit code of every CLI call
the benchmark makes.  Run it once, at the commit whose outputs are the
reference; it refuses to overwrite an existing file.

    python3 perfbench/record_reference.py

A theorem3 call is recorded under several seeds and must print the same
bytes for each, since the benchmark compares every seed's output with one
entry.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import CLI_BOOT, HERE, TMP_ROOT, WORKLOADS, Runner, workload_calls


def main() -> int:
    target = HERE / "reference.json"
    if target.exists():
        print(f"{target} exists; delete it first to record a new reference", file=sys.stderr)
        return 1
    tmp = TMP_ROOT / "record"
    runner = Runner(tmp, {})
    reference, seen = {}, set()
    try:
        for workload in WORKLOADS:
            for iteration in range(3):
                for call in workload_calls(workload, 0, iteration):
                    if call.argv in seen:
                        continue
                    seen.add(call.argv)
                    code, out, _ = runner.spawn(["-c", CLI_BOOT, *call.argv], runner.workdir())
                    entry = {"exit_code": code, "stdout": out.decode()}
                    if reference.setdefault(call.key, entry) != entry:
                        print(f"{call.key}: output depends on the seed", file=sys.stderr)
                        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_ROOT.is_dir() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()
    target.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
