#!/usr/bin/env bash
# Dead public surface gate, in two passes. Each reports `<file>:<name>`
# for a public item no non-test code uses, and the gate fails on any such
# item scripts/dead_pub_allow.txt does not list, or on an allowlisted
# item that is no longer dead.
#
# Compiler pass, for `pub fn` (methods and `const fn` included): copy the
# tree into a temp dir, tag each `pub fn` outside #[cfg(test)] code in
# crates/*/src and src with #[deprecated(note = "<file>:<line>")]
# (scripts/nontest.sh --tag), and `cargo check` the workspace's libs,
# bins, examples and [[bench]] targets, then perfbench. A tagged fn that
# no deprecation warning names is dead. Benches are checked by name:
# `--benches` would also build each lib under cfg(test), whose uses do
# not count. The pass writes only to its temp dir.
#
# Name pass, for `pub struct/enum/const/type/trait`: a name that appears
# exactly once (its own definition) in the non-test code is dead. A
# deprecated type counts as used by its own impls and derives, so types
# are matched by name. Non-test code is crates/*/src, crates/*/benches,
# src, examples and perfbench/src as scripts/nontest.sh prints it: each
# file without its #[cfg(test)] items and without `//` comments. A name
# counts wherever it appears as a word in what is left, re-exports
# included.
#
# Offline. Usage: scripts/dead_pub.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C
ALLOW=scripts/dead_pub_allow.txt
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Name pass.
find crates/*/src crates/*/benches src examples perfbench/src -name '*.rs' | sort > "$TMP/files"
xargs scripts/nontest.sh < "$TMP/files" > "$TMP/code.rs"
while IFS= read -r f; do
    scripts/nontest.sh "$f" \
        | grep -oE '\bpub (unsafe )?(struct|enum|const|type|trait) [A-Za-z_][A-Za-z0-9_]*' \
        | awk -v f="$f" '$NF != "fn" && $NF != "unsafe" { print $NF, f ":" $NF }' || true
done < "$TMP/files" | sort -u > "$TMP/types"
grep -oE '[A-Za-z_][A-Za-z0-9_]*' "$TMP/code.rs" | sort | uniq -c \
    | awk '$1 == 1 { print $2 }' > "$TMP/once"
join "$TMP/types" "$TMP/once" | awk '{ print $2 }' > "$TMP/dead"

# Compiler pass.
COPY="$TMP/tree"
mkdir "$COPY"
git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
    | tar --null -T - -cf - | tar -xf - -C "$COPY"
(
    cd "$COPY"
    find crates/*/src src -name '*.rs' | sort | while IFS= read -r f; do
        scripts/nontest.sh --tag "$f" > "$f.tagged"
        mv "$f.tagged" "$f"
    done
    # "<file>:<line> <file>:<name>" for each tagged fn.
    find crates/*/src src -name '*.rs' | sort | xargs awk '
        /#\[deprecated\(note = "/ { n = $0; sub(/.*note = "/, "", n); sub(/".*/, "", n); next }
        n != "" { match($0, /fn [A-Za-z_][A-Za-z0-9_]*/); f = n; sub(/:[0-9]+$/, "", f)
                  print n, f ":" substr($0, RSTART + 3, RLENGTH - 3); n = "" }
    ' | sort > "$TMP/tagged"
    benches=()
    for b in $(sed -n '/^\[\[bench\]\]/,/^name/ s/^name = "\(.*\)"/\1/p' crates/*/Cargo.toml); do
        benches+=(--bench "$b")
    done
    export CARGO_TARGET_DIR="$TMP/target" RUSTFLAGS="--cap-lints=warn"
    cargo check --offline --workspace --lib --bins --examples "${benches[@]}" \
        --message-format short > "$TMP/check.log" 2>&1 \
        || { cat "$TMP/check.log" >&2; exit 1; }
    cargo check --offline --manifest-path perfbench/Cargo.toml \
        --message-format short >> "$TMP/check.log" 2>&1 \
        || { cat "$TMP/check.log" >&2; exit 1; }
)
grep -oE 'use of deprecated [^`]*`[^`]*`: [^ ]+:[0-9]+$' "$TMP/check.log" \
    | awk '{ print $NF }' | sort -u > "$TMP/used"
join -v 1 "$TMP/tagged" "$TMP/used" | awk '{ print $2 }' >> "$TMP/dead"

sort -u -o "$TMP/dead" "$TMP/dead"
sed -E 's/#.*//; s/[[:space:]]+//g; /^$/d' "$ALLOW" | sort -u > "$TMP/allowed"
comm -23 "$TMP/dead" "$TMP/allowed" > "$TMP/unlisted"
comm -13 "$TMP/dead" "$TMP/allowed" > "$TMP/stale"

echo "    $(wc -l < "$TMP/tagged") pub fns and $(wc -l < "$TMP/types") other public items, $(wc -l < "$TMP/dead") unused by non-test code, $(wc -l < "$TMP/allowed") allowlisted"
if [ -s "$TMP/unlisted" ]; then
    echo "public items no non-test code uses (delete them, or list a test helper in $ALLOW):" >&2
    sed 's/^/    /' "$TMP/unlisted" >&2
    exit 1
fi
if [ -s "$TMP/stale" ]; then
    echo "allowlisted items that non-test code now uses (remove them from $ALLOW):" >&2
    sed 's/^/    /' "$TMP/stale" >&2
    exit 1
fi
