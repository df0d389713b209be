#!/usr/bin/env bash
# Non-test code lines at BASE and in the working tree, with the difference.
#
# Counts the non-blank lines scripts/nontest.sh prints for every *.rs file
# git knows (tracked, or untracked and not ignored), leaving out files
# under a tests/ directory. Rows are the top-level directories, or the
# given PATHs (a file or a directory each; a file counts toward the
# first PATH that holds it). BASE is read with `git archive` into a temp
# dir; both sides use the working tree's scripts/nontest.sh, so a change
# to the extractor cannot skew the delta.
# Usage: scripts/loc.sh BASE [PATH...]
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C
BASE="${1:?usage: scripts/loc.sh BASE [PATH...]}"
shift
PATHS=("$@")
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/base"
git archive "$BASE" | tar -x -C "$TMP/base"

# row FILE: the row FILE counts toward, or nothing.
row() {
    if [ "${#PATHS[@]}" -eq 0 ]; then
        echo "${1%%/*}"
        return
    fi
    local p
    for p in "${PATHS[@]}"; do
        p="${p%/}"
        case "$1" in "$p" | "$p"/*) echo "$p"; return ;; esac
    done
}

# tally ROOT: "<row> <lines>" per row, for the files listed on stdin.
tally() {
    local f r
    while IFS= read -r f; do
        case "$f" in tests/* | */tests/*) continue ;; esac
        [ -f "$1/$f" ] || continue
        r="$(row "$f")"
        [ -n "$r" ] || continue
        echo "$r $(scripts/nontest.sh "$1/$f" | grep -c '[^[:space:]]' || true)"
    done | awk '{ n[$1] += $2 } END { for (r in n) print r, n[r] }' | sort
}

git ls-tree -r --name-only "$BASE" | grep '\.rs$' | tally "$TMP/base" > "$TMP/at_base"
git ls-files --cached --others --exclude-standard -- '*.rs' | sort -u | tally . > "$TMP/at_tree"
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 "$TMP/at_base" "$TMP/at_tree" | awk -v base="$BASE" '
    BEGIN { printf "%-40s %10s %10s %8s\n", "non-test code lines", base, "tree", "delta" }
    { printf "%-40s %10d %10d %+8d\n", $1, $2, $3, $3 - $2; b += $2; t += $3 }
    END { printf "%-40s %10d %10d %+8d\n", "total", b, t, t - b }'
