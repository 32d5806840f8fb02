"""Record the stdout digest of every canonical query the benchmark can run.

    python3 perfbench/record_digests.py

Runs each query once through the CLI of this checkout (workers=1, no
cache) and rewrites digests.json.  Record on a commit whose output is
trusted; the benchmark then fails any query whose stdout differs.
"""

from __future__ import annotations

import json
import sys

import run
from queries import Query, all_canonical_texts, digest


def main() -> int:
    run.import_tree_under_test()
    run.check_child_import()
    run.WORK.mkdir(exist_ok=True)
    digests = {}
    for text in all_canonical_texts():
        sample = run.run_query(Query(text), None)
        if sample.returncode != 0:
            print(f"{text}: exit status {sample.returncode}", file=sys.stderr)
            return 1
        digests[text] = digest(sample.stdout)
    with open(run.HERE / "digests.json", "w", encoding="utf-8") as handle:
        json.dump({"digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
