"""Record the report-stream digest of every workload and seed class.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs one untraced pass per seed class, each in a fresh interpreter, refuses
to record a pass whose verdicts disagree with the known answers, and writes
perfbench/digests.json. Re-record only when a change to froblab's JSON
reports is intended: the recorded digests are what make output drift fail a
benchmark run.
"""

import json
import sys

import run


def main(argv):
    run.import_froblab()
    import workloads

    path = run.HERE / "digests.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    for name in argv or run.WORKLOAD_NAMES:
        table = {}
        for cls in range(workloads.SEED_CLASSES):
            args = run.argparse.Namespace(workload=name, seed=cls, seconds=1, trace=0)
            record = run.spawn_pass(args, traced=False, timeout=170)
            problems = [record["error"]] if "error" in record else record["problems"]
            if problems:
                print(f"{name} seed class {cls}: not recorded: {problems[:3]}", file=sys.stderr)
                return 1
            table[str(cls)] = record["digest"]
            print(f"{name} {cls} {record['digest'][:16]} {record['wall_s']:.2f}s", flush=True)
        digests[name] = table
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
