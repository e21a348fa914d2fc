#!/usr/bin/env bash
# Source lines per crate, split into product and test lines.
#
# Product lines are the lines of each `crates/<crate>/src/**/*.rs` file
# before its first `#[cfg(test)]`; test lines are the rest of those files
# plus every file under `crates/<crate>/tests/`. Run from anywhere:
#
#   scripts/loc.sh
#
# It prints one row per crate and a total, and always exits 0: the figure
# is a report, not a gate.
set -u
cd "$(dirname "$0")/.." || exit 0

count() {
    # $1: directory of product sources, $2: directory of test sources.
    local product=0 tests=0 f split total
    while IFS= read -r f; do
        total=$(wc -l <"$f")
        split=$(grep -n -m1 '^[[:space:]]*#\[cfg(test)\]' "$f" | cut -d: -f1)
        if [ -n "$split" ]; then
            product=$((product + split - 1))
            tests=$((tests + total - split + 1))
        else
            product=$((product + total))
        fi
    done < <(find "$1" -name '*.rs' 2>/dev/null | sort)
    if [ -d "$2" ]; then
        while IFS= read -r f; do
            tests=$((tests + $(wc -l <"$f")))
        done < <(find "$2" -name '*.rs' | sort)
    fi
    echo "$product $tests"
}

printf '%-10s %8s %8s\n' crate product test
all_product=0
all_tests=0
for dir in crates/*/; do
    name=$(basename "$dir")
    read -r product tests < <(count "${dir}src" "${dir}tests")
    printf '%-10s %8d %8d\n' "$name" "$product" "$tests"
    all_product=$((all_product + product))
    all_tests=$((all_tests + tests))
done
printf '%-10s %8d %8d\n' total "$all_product" "$all_tests"
exit 0
