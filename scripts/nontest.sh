#!/usr/bin/env bash
# Print the non-test code of the given Rust files: each file without its
# #[cfg(test)] items and without `//` comments (doc comments included).
# scripts/dead_pub.sh and scripts/loc.sh count what this prints.
#
# A #[cfg(test)] item goes with its further attributes, then either a
# one-line item or everything up to the brace that closes it at the
# attribute's own indentation.
#
# With --tag, print the files whole instead, and put
# #[deprecated(note = "<file>:<line>")] before each `pub fn` line of the
# non-test code (`const`, `async` and `unsafe` fns and methods too), so
# the compiler names every use of it. scripts/dead_pub.sh runs this on a
# copy of the tree.
# Usage: scripts/nontest.sh [--tag] FILE...
TAG=0
if [ "${1:-}" = --tag ]; then
    TAG=1
    shift
fi
exec awk -v tag="$TAG" '
    function pad(n,   s) { s = ""; while (n-- > 0) s = s " "; return s }
    function drop() { if (tag) print }
    FNR == 1 { skip = 0 }
    skip == 1 && /^[[:space:]]*#\[/ { drop(); next }
    skip == 1 && /;[[:space:]]*$/ && !/\{/ { skip = 0; drop(); next }
    skip == 1 { skip = 2 }
    skip == 2 { if (index($0, close_at) == 1) skip = 0; drop(); next }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; close_at = pad(index($0, "#") - 1) "}"; drop(); next }
    tag && /^[[:space:]]*pub ((const|async|unsafe) )*fn / {
        match($0, /^[[:space:]]*/)
        print substr($0, 1, RLENGTH) "#[deprecated(note = \"" FILENAME ":" FNR "\")]"
    }
    tag { print; next }
    { sub(/\/\/.*/, ""); print }
' "$@"
