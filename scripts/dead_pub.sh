#!/usr/bin/env bash
# Dead public surface gate. Lists every `pub fn/struct/enum/const/type/trait`
# name that appears exactly once (its own definition) in the non-test code,
# and fails on any name scripts/dead_pub_allow.txt does not list, or on an
# allowlisted name that is no longer dead.
#
# Non-test code is crates/*/src, crates/*/benches, src, examples and
# perfbench/src, each file without its #[cfg(test)] items. A name counts
# wherever it appears as a word, doc comments and re-exports included.
# Offline: sources only. Usage: scripts/dead_pub.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C
ALLOW=scripts/dead_pub_allow.txt
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Drop each #[cfg(test)] item: its further attributes, then either a
# one-line item or everything up to the brace that closes it at the
# attribute's own indentation.
find crates/*/src crates/*/benches src examples perfbench/src -name '*.rs' | sort \
    | xargs awk '
        function pad(n,   s) { s = ""; while (n-- > 0) s = s " "; return s }
        FNR == 1 { skip = 0 }
        skip == 1 && /^[[:space:]]*#\[/ { next }
        skip == 1 && /;[[:space:]]*$/ && !/\{/ { skip = 0; next }
        skip == 1 { skip = 2 }
        skip == 2 { if (index($0, close_at) == 1) skip = 0; next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; close_at = pad(index($0, "#") - 1) "}"; next }
        { print }
    ' > "$TMP/code.rs"

grep -oE '\bpub ((const|async|unsafe) )*(fn|struct|enum|const|type|trait) [A-Za-z_][A-Za-z0-9_]*' \
    "$TMP/code.rs" | awk '{ print $NF }' | sort -u > "$TMP/names"
grep -oE '[A-Za-z_][A-Za-z0-9_]*' "$TMP/code.rs" | sort | uniq -c \
    | awk '$1 == 1 { print $2 }' > "$TMP/once"
comm -12 "$TMP/names" "$TMP/once" > "$TMP/dead"
sed -E 's/#.*//; s/[[:space:]]+//g; /^$/d' "$ALLOW" | sort -u > "$TMP/allowed"
comm -23 "$TMP/dead" "$TMP/allowed" > "$TMP/unlisted"
comm -13 "$TMP/dead" "$TMP/allowed" > "$TMP/stale"

echo "    $(wc -l < "$TMP/names") public names, $(wc -l < "$TMP/dead") named only at their definition, $(wc -l < "$TMP/allowed") allowlisted"
if [ -s "$TMP/unlisted" ]; then
    echo "public items no non-test code uses (delete them, or list a test helper in $ALLOW):" >&2
    sed 's/^/    /' "$TMP/unlisted" >&2
    exit 1
fi
if [ -s "$TMP/stale" ]; then
    echo "allowlisted names that non-test code now uses (remove them from $ALLOW):" >&2
    sed 's/^/    /' "$TMP/stale" >&2
    exit 1
fi
