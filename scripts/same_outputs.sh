#!/usr/bin/env bash
# Checks that two run directories hold byte-identical outputs.
#
#   scripts/same_outputs.sh A B [FILE...]
#
# Compares each FILE in A with the same file in B. Without FILEs it
# compares what a `simulate ... --obs-out DIR > DIR/stdout.txt` run
# leaves: stdout.txt, obs_metrics.jsonl, obs_snapshots.jsonl, and
# obs_trace.jsonl when either directory has one. A file missing from
# either side is a mismatch. On the first mismatch it prints the first
# hunk of `diff -u` (at most 40 lines) and exits 1; otherwise it exits 0
# silently.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 A B [FILE...]" >&2
    exit 2
fi
a=$1 b=$2
shift 2
files=("$@")
if [ ${#files[@]} -eq 0 ]; then
    files=(stdout.txt obs_metrics.jsonl obs_snapshots.jsonl)
    if [ -e "$a/obs_trace.jsonl" ] || [ -e "$b/obs_trace.jsonl" ]; then
        files+=(obs_trace.jsonl)
    fi
fi

for f in "${files[@]}"; do
    if ! cmp -s "$a/$f" "$b/$f"; then
        echo "same_outputs: $a/$f and $b/$f differ" >&2
        { diff -u "$a/$f" "$b/$f" 2>&1 || true; } | awk '/^@@/ { h++ } h <= 1' | head -n 40 >&2
        exit 1
    fi
done
