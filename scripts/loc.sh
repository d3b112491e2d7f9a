#!/usr/bin/env bash
# Non-test line counts for Rust sources.
#
#   scripts/loc.sh [--base REV] [PATH...]    (default: every crates/*/src)
#
# Prints one "count path" line per PATH (a directory or a .rs file) and,
# for more than one PATH, their total. With `--base REV`, each line reads
# "base → now (delta) path" instead: the same rule over REV's tree
# (exported with `git archive` into a temporary directory), against the
# working tree. A PATH missing from one side counts 0 there. The rule:
#   - every line counts, blank lines, comments and doc comments included,
#     except:
#   - an item under `#[cfg(test)]` (a `mod tests { … }`, a test-only fn or
#     a `mod testutil;` declaration), from the attribute to its close;
#   - a file that is test-only: one that says `#![cfg(test)]`, or one
#     that its parent declares under `#[cfg(test)]`;
#   - anything under a `tests/` or `benches/` directory.
# Braces are counted after stripping string and char literals, which is
# exact for this repository's rustfmt-formatted sources.
set -euo pipefail
cd "$(dirname "$0")/.."

# Files declared test-only by a `#[cfg(test)]` + `mod name;` in their parent.
test_only_files() {
    local f dir
    for f in "$@"; do
        dir=$(dirname "$f")
        [ "$(basename "$f")" = lib.rs ] || [ "$(basename "$f")" = mod.rs ] \
            || [ "$(basename "$f")" = main.rs ] || dir="${f%.rs}"
        awk '/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { t = 1; next }
             t && match($0, /mod [a-z_0-9]+;/) {
                 m = substr($0, RSTART + 4, RLENGTH - 5); print m }
             { t = 0 }' "$f" |
            while read -r m; do
                echo "$dir/$m.rs"
                echo "$dir/$m/mod.rs"
            done
    done
}

count_file() {
    awk '
    function strip(s) {
        gsub(/\\\\/, "", s); gsub(/\\"/, "", s); gsub(/"[^"]*"/, "\"\"", s)
        gsub(/'\''[^'\'']'\''/, "", s)
        return s
    }
    FNR == 1 { skipping = 0; depth = 0; opened = 0; n = 0 }
    /^[[:space:]]*#!\[cfg\(test\)\]/ { whole = 1 }
    !skipping && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ {
        skipping = 1; depth = 0; opened = 0; next
    }
    skipping {
        s = strip($0)
        o = gsub(/\{/, "{", s); c = gsub(/\}/, "}", s)
        depth += o - c
        if (o > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && s ~ /;[[:space:]]*$/)) skipping = 0
        next
    }
    { n++ }
    END { print (whole ? 0 : n) }' "$1"
}

count_path() {
    local p=$1 total=0 f
    local files
    if [ -d "$p" ]; then
        files=$(find "$p" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' | sort)
    else
        files=$p
    fi
    # shellcheck disable=SC2086
    local excluded
    excluded=$(test_only_files $(find "$(dirname "$p")" -name '*.rs' -not -path '*/tests/*' | sort) | sort -u)
    for f in $files; do
        if grep -qxF "$f" <<<"$excluded"; then
            continue
        fi
        total=$((total + $(count_file "$f")))
    done
    echo "$total"
}

base=""
if [ "${1:-}" = --base ]; then
    [ $# -ge 2 ] || { echo "usage: $0 [--base REV] [PATH...]" >&2; exit 2; }
    base=$(mktemp -d)
    trap 'rm -rf "$base"' EXIT
    git archive "$2" | tar -x -C "$base"
    shift 2
fi

# The count of PATH in the tree rooted at DIR (0 when it is absent).
count_in() {
    if [ -e "$1/$2" ]; then
        (cd "$1" && count_path "$2")
    else
        echo 0
    fi
}

paths=("$@")
if [ ${#paths[@]} -eq 0 ]; then
    paths=(crates/*/src)
fi
sum=0
bsum=0
for p in "${paths[@]}"; do
    p=${p%/}
    c=$(count_in . "$p")
    sum=$((sum + c))
    if [ -n "$base" ]; then
        b=$(count_in "$base" "$p")
        bsum=$((bsum + b))
        printf '%7d → %7d (%+d) %s\n' "$b" "$c" "$((c - b))" "$p"
    else
        printf '%7d %s\n' "$c" "$p"
    fi
done
if [ ${#paths[@]} -gt 1 ]; then
    if [ -n "$base" ]; then
        printf '%7d → %7d (%+d) total\n' "$bsum" "$sum" "$((sum - bsum))"
    else
        printf '%7d total\n' "$sum"
    fi
fi
