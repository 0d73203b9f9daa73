#!/usr/bin/env bash
# Documentation honesty checks (the CI `docs` job):
#
#   1. Every relative Markdown link in README.md and docs/*.md resolves
#      to a file or directory in the repo.
#   2. Every HIDA_* environment variable the compiler (src/), the
#      benches (bench/) or the scripts (scripts/) read appears in the
#      README knob table.
#   3. Every backticked repo path (`src/...`, `tests/...`, `bench/...`,
#      `scripts/...`, `examples/...`, `perfbench/...`) in README.md and
#      docs/*.md exists, so the docs cannot name a deleted file.
#      ROADMAP.md is exempt: it names planned files on purpose.
#   4. Every backticked HIDA_* name in the README knob table is read
#      somewhere in src/, bench/, scripts/ or tests/, so a deleted knob
#      cannot leave a stale row behind.
#
# Exit non-zero with one line per problem; print OK otherwise. Callable
# locally from anywhere inside the repo.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"

status=0

# ---- 1. Relative link checker ---------------------------------------------
# Markdown inline links: [text](target). External schemes and pure
# anchors are skipped; a #fragment on a relative target is stripped.
doc_files=(README.md)
while IFS= read -r f; do
    doc_files+=("$f")
done < <(find docs -name '*.md' | sort)

for doc in "${doc_files[@]}"; do
    dir=$(dirname "$doc")
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path="${target%%#*}"
        [[ -z "$path" ]] && continue
        if [[ ! -e "$dir/$path" ]]; then
            echo "FAIL: $doc links to missing file '$target'" >&2
            status=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//')
done

# ---- 2. Knob-table completeness -------------------------------------------
# Every HIDA_* var read from the environment — getenv()/envUint()/
# envDouble() in C++, ${HIDA_*} expansion in shell — must have a row
# (backtick-quoted) in the README knob table. HIDA_ASSERT/PANIC/FATAL
# are macros, not knobs; *_H are include guards.
# Prints the HIDA_* names read from the environment in the given dirs.
env_reads() {
    {
        grep -rhoE '(getenv|envUint|envDouble)\("HIDA_[A-Z_0-9]+"' \
            "$@" 2>/dev/null || true
        grep -rhoE '\$\{HIDA_[A-Z_0-9]+' "$@" 2>/dev/null || true
        # CMake reads ($ENV{..}, if(DEFINED ENV{..})); set(ENV{..}) writes.
        grep -rhoE '(\$|DEFINED )ENV\{HIDA_[A-Z_0-9]+\}' "$@" \
            2>/dev/null || true
    } | grep -oE 'HIDA_[A-Z_0-9]+' | sort -u
}
vars=$(env_reads src/ bench/ scripts/)

for var in $vars; do
    if ! grep -q "\`$var\`" README.md; then
        echo "FAIL: env var $var is read but missing from the README" \
             "knob table" >&2
        status=1
    fi
done

# ---- 3. Backticked repo paths ---------------------------------------------
# The first word of an inline code span that starts with a repo
# directory, minus any :line suffix. Globs (`examples/*.cpp`) must match
# something; one {a,b} group (`src/ir/verifier.{h,cc}`) is expanded.
paths_checked=0
for doc in "${doc_files[@]}"; do
    while IFS= read -r span; do
        path="${span%%[[:space:]]*}"
        path="${path%%:*}"
        candidates=("$path")
        if [[ "$path" =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
            candidates=()
            IFS=, read -ra alts <<<"${BASH_REMATCH[2]}"
            for alt in "${alts[@]}"; do
                candidates+=("${BASH_REMATCH[1]}$alt${BASH_REMATCH[3]}")
            done
        fi
        for candidate in "${candidates[@]}"; do
            paths_checked=$((paths_checked + 1))
            if ! compgen -G "$candidate" >/dev/null; then
                echo "FAIL: $doc names missing path '$candidate'" >&2
                status=1
            fi
        done
    done < <(grep -oE '`(src|tests|bench|scripts|examples|perfbench)/[^`]*`' \
                 "$doc" | sed 's/^`//; s/`$//')
done

# ---- 4. No stale knob rows ------------------------------------------------
# The knob table's rows start with a backticked HIDA_* name; every
# backticked HIDA_* name in those rows must still be read somewhere.
read_vars=" $(env_reads src/ bench/ scripts/ tests/ | tr '\n' ' ') "
row_vars=$(grep -E '^\| `HIDA_' README.md |
               grep -oE '`HIDA_[A-Z_0-9]+`' | tr -d '`' | sort -u)
for var in $row_vars; do
    if [[ "$read_vars" != *" $var "* ]]; then
        echo "FAIL: README knob table names $var, but nothing in src/," \
             "bench/, scripts/ or tests/ reads it" >&2
        status=1
    fi
done

if [[ $status -ne 0 ]]; then
    exit $status
fi
echo "OK: all relative doc links resolve; knob table covers" \
     "$(echo "$vars" | wc -w) HIDA_* env vars; its" \
     "$(echo "$row_vars" | wc -w) names are all read; $paths_checked" \
     "backticked repo paths exist"
