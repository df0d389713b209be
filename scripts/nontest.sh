#!/usr/bin/env bash
# Print the non-test code of the given Rust files: each file without its
# #[cfg(test)] items and without `//` comments (doc comments included).
# scripts/dead_pub.sh and scripts/loc.sh count what this prints.
#
# A #[cfg(test)] item goes with its further attributes, then either a
# one-line item or everything up to the brace that closes it at the
# attribute's own indentation. Usage: scripts/nontest.sh FILE...
exec awk '
    function pad(n,   s) { s = ""; while (n-- > 0) s = s " "; return s }
    FNR == 1 { skip = 0 }
    skip == 1 && /^[[:space:]]*#\[/ { next }
    skip == 1 && /;[[:space:]]*$/ && !/\{/ { skip = 0; next }
    skip == 1 { skip = 2 }
    skip == 2 { if (index($0, close_at) == 1) skip = 0; next }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; close_at = pad(index($0, "#") - 1) "}"; next }
    { sub(/\/\/.*/, ""); print }
' "$@"
