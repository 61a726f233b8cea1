"""Regenerate ``reference.json``: op digests on the default seed.

Run from the root of a checkout, only when a change is *meant* to alter
outputs (a result-version bump)::

    python3 perfbench/make_reference.py [workload ...]

Each workload runs more cycles than a measured run can reach, with
every output check on, and stores ``op key -> result digest`` (both cut
to :data:`harness.DIGEST_CHARS` hex digits).  Generation fails if any op
fails its checks.
"""

from __future__ import annotations

import json
import sys

import run as bench

#: Cycles recorded per workload — several times what a measured run of
#: ``run_seconds`` gets through on a two-core machine.
CYCLES = {"home-round": 48, "fleet-100": 60, "online-replay": 30,
          "service-mix": 1000}


def main(argv) -> int:
    names = argv or list(CYCLES)
    sys.path.insert(0, str(bench.ROOT / "src"))
    from harness import (
        DIGEST_CHARS,
        make_scratch,
        remove_scratch,
        stop_children,
    )
    data = json.loads(bench.REFERENCE.read_text()) \
        if bench.REFERENCE.exists() else {}
    data["default_seed"] = bench.DEFAULT_SEED
    workloads = data.setdefault("workloads", {})
    scratch = make_scratch()
    try:
        from suite import WORKLOADS
        for name in names:
            workload = WORKLOADS[name](bench.DEFAULT_SEED, scratch)
            workload.setup()
            records = bench.measure(workload, None, cycles=CYCLES[name])
            failed = sum(not record.ok for record in records) \
                + workload.verify()
            if failed:
                print(f"{name}: {failed} ops failed; reference not written",
                      file=sys.stderr)
                return 1
            cut = DIGEST_CHARS
            table = {record.op.key[:cut]: record.digest[:cut]
                     for record in records}
            for key, value in getattr(workload, "published", {}).items():
                table[key[:cut]] = value[:cut]
            workloads[name] = dict(sorted(table.items()))
            print(f"{name}: {len(records)} ops, {len(table)} digests")
        stop_children()
    finally:
        remove_scratch(scratch)
    bench.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
