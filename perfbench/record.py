"""Record the expected output digest of every benchmark call.

    python3 perfbench/record.py [SEED ...]

Runs each workload once per seed with the certiroot in `src/` and writes
perfbench/expected.json: digests of fixed instances by call name, and for
every workload and seed the digests of its seeded calls, in corpus order, as
base64 of three bytes each. Run it only when an output change is intended; the
benchmark fails every call whose output no longer matches.
"""

import base64
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads

RECORDED_SEEDS = [workloads.DEFAULT_SEED, workloads.HELDOUT_SEED, *range(24)]


def outputs(calls, mods):
    for call in calls:
        out = call.run(mods)
        problems = call.problems(out)
        if problems:
            raise SystemExit(f"{call.name} fails its checks, not recording: {problems}")
        yield call, call.digest(out)


def main(argv) -> int:
    seeds = [int(s, 0) for s in argv] or RECORDED_SEEDS
    mods = workloads.load_certiroot()
    fixed, seeded = {}, {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        for seed in seeds:
            for name in workloads.WORKLOADS:
                calls = workloads.build(name, mods, seed, Path(tmp))
                if seed != seeds[0] and not any(c.seeded for c in calls):
                    continue  # fixed instances only: recorded with the first seed
                raw = b""
                for call, digest in outputs(calls, mods):
                    if call.seeded:
                        raw += bytes.fromhex(digest)
                    elif fixed.setdefault(call.name, digest) != digest:
                        raise SystemExit(f"{call.name} is not deterministic")
                if raw:
                    seeded.setdefault(name, {})[str(seed)] = base64.b64encode(raw).decode()
            print(f"seed {seed} recorded", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps({"fixed": dict(sorted(fixed.items())),
                                        "seeded": seeded}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
