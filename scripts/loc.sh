#!/bin/sh
# Count the lines of Rust source files that carry code: for each FILE,
# the lines before its first `#[cfg(test)]` that are neither blank nor a
# comment line (one whose first non-blank characters are `//`). Prints
# one count per file, then the total. Usage:
#
#   scripts/loc.sh crates/sgfs/src/proxy/*.rs
set -eu

if [ "$#" -eq 0 ]; then
    echo "usage: $0 FILE..." >&2
    exit 2
fi

total=0
for file in "$@"; do
    n=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$file")
    printf '%6d %s\n' "$n" "$file"
    total=$((total + n))
done
printf '%6d total\n' "$total"
