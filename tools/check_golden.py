#!/usr/bin/env python3
"""Golden-output check: every pinned example run must reproduce its bytes.

``ci/golden.json`` lists command lines, each with the sha256 of its stdout
and of every file it writes:

    {"entries": [{"name": "chat-default",
                  "argv": ["chat_clients"],
                  "stdout": "<sha256>",
                  "files": {"disagg.json": "<sha256>"}}]}

``argv[0]`` names a binary in the build directory. Each entry runs in a
fresh temporary directory, so relative output paths, and the paths the
binary prints, are the same on every run. An entry fails when the binary
exits nonzero, when its stdout or a written file hashes differently, or
when it writes a different set of files. The outputs are simulated-clock
results, identical across build types and ISA levels, so one table
serves every build. ``--update`` rewrites the table only when every
entry ran.

Usage:
    tools/check_golden.py --build build            # check, exit 1 on drift
    tools/check_golden.py --build build --update   # re-record the digests

``--update`` prints, per entry, the digests that moved and those kept. A
change that means to move an output re-records with ``--update`` and
names every moved digest, and why, in CHANGES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "ci", "golden.json")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_entry(build, entry):
    """Runs one entry in a fresh directory; returns (stdout digest,
    {written file: digest}) or raises RuntimeError."""
    argv = list(entry["argv"])
    argv[0] = os.path.join(os.path.abspath(build), argv[0])
    with tempfile.TemporaryDirectory(prefix="golden-") as cwd:
        proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        if proc.returncode != 0:
            raise RuntimeError(
                f"exit {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()}")
        files = {}
        for root, _, names in os.walk(cwd):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    files[os.path.relpath(path, cwd)] = sha256(f.read())
    return sha256(proc.stdout), files


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build", required=True,
                        help="directory holding the built binaries")
    parser.add_argument("--update", action="store_true",
                        help="re-record every digest instead of checking")
    args = parser.parse_args()

    with open(GOLDEN, "r", encoding="utf-8") as f:
        table = json.load(f)
    moved = []
    for entry in table["entries"]:
        name = entry["name"]
        try:
            stdout, files = run_entry(args.build, entry)
        except (OSError, RuntimeError) as err:
            print(f"FAIL {name}: {err}")
            moved.append(name)
            continue
        want = {"stdout": entry["stdout"], **entry.get("files", {})}
        got = {"stdout": stdout, **files}
        keys = ["stdout"] + sorted((set(want) | set(got)) - {"stdout"})
        drift = [key for key in keys if want.get(key) != got.get(key)]
        if args.update:
            entry["stdout"] = stdout
            entry["files"] = files
            kept = [key for key in keys if key not in drift]
            print(f"recorded {name}: moved {', '.join(drift) or 'nothing'}; "
                  f"kept {', '.join(kept) or 'nothing'}")
            continue
        if drift:
            print(f"FAIL {name}: digest moved for {', '.join(drift)}")
            moved.append(name)
        else:
            print(f"ok   {name}")

    if args.update and not moved:
        with open(GOLDEN, "w", encoding="utf-8") as f:
            json.dump(table, f, indent=2)
            f.write("\n")
    if moved:
        print(f"check_golden: {len(moved)} of {len(table['entries'])} "
              f"entries failed: {', '.join(moved)}")
        return 1
    print(f"check_golden: all {len(table['entries'])} entries match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
