#!/usr/bin/env bash
# audit_test_only.sh — fail when library code is reachable only from tests.
#
#   tools/audit_test_only.sh [BUILD_DIR]      (default: build-audit)
#
# Builds every shipped executable — the tools/, bench/ and examples/
# targets plus the pawsbench package — at -O0 -fno-inline, one section
# per function, linked with --gc-sections. Each binary then holds exactly
# the library functions it can reach. Every strong text symbol (nm type T)
# of the libpaws_*.a archives must be linked into at least one of those
# binaries or be listed in tools/test_only_allowlist.txt.
#
# Allowlist lines are `<demangled symbol>  # <one-line reason>`; blank
# lines and lines starting with `#` are comments. An entry without a
# reason fails, and so does a stale entry: one that names no strong
# symbol of the archives, or one that a shipped binary now links.
#
# Out of reach: inline functions, templates and everything else defined in
# a header. They compile to weak symbols or vanish into their callers, so
# a header-only helper that only tests call passes this audit unseen.
#
# Needs cmake, ninja and binutils (nm, c++filt). Exit codes: 0 clean,
# 1 findings, 2 the build failed.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "${1:-$root/build-audit}" && cd "${1:-$root/build-audit}" && pwd)
allowlist=$root/tools/test_only_allowlist.txt
jobs=$(nproc)

flags=(-G Ninja -DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -fno-inline"
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
build() {  # build <source dir> <build dir> <target>...
  local src=$1 dir=$2
  shift 2
  cmake -S "$src" -B "$dir" "${flags[@]}" > "$dir.configure.log" 2>&1 &&
    cmake --build "$dir" -j "$jobs" --target "$@" > "$dir.build.log" 2>&1 ||
    { tail -n 30 "$dir".*.log >&2; echo "audit: build failed" >&2; exit 2; }
}
build "$root" "$out/paws" tools/all bench/all examples/all
build "$root/pawsbench" "$out/pawsbench" pawsbench pawsd

binaries=$(find "$out/paws/tools" "$out/paws/bench" "$out/paws/examples" \
             -maxdepth 1 -type f -perm -u+x | sort)
binaries+=$'\n'"$out/pawsbench/pawsbench"$'\n'"$out/pawsbench/pawsd"

# Strong library symbols as "mangled<TAB>archive", and every symbol the
# shipped binaries define.
for a in "$out"/paws/src/*/libpaws_*.a; do
  nm --defined-only "$a" |
    awk -v lib="$(basename "$a")" 'NF == 3 && $2 == "T" { print $3 "\t" lib }'
done | sort -u -k1,1 > "$out/library.tsv"
while read -r bin; do
  nm --defined-only "$bin" | awk 'NF == 3 { print $3 }'
done <<< "$binaries" | sort -u > "$out/linked.txt"

cut -f1 "$out/library.tsv" | c++filt > "$out/library.demangled"
cut -f1 "$out/library.tsv" | comm -23 - "$out/linked.txt" |
  join -t $'\t' - "$out/library.tsv" > "$out/unlinked.tsv"
cut -f1 "$out/unlinked.tsv" | c++filt > "$out/unlinked.names"
paste "$out/unlinked.names" <(cut -f2 "$out/unlinked.tsv") |
  sort -u > "$out/unlinked.demangled"

grep -v -e '^[[:space:]]*#' -e '^[[:space:]]*$' "$allowlist" |
  sed -e 's/[[:space:]]*$//' > "$out/allowlist.entries" || true

failures=0
while IFS= read -r line; do
  symbol=$(sed -e 's/[[:space:]]*#.*$//' <<< "$line")
  reason=$(sed -n -e 's/^[^#]*#[[:space:]]*//p' <<< "$line")
  if [[ -z $reason ]]; then
    echo "audit: allowlist entry without a reason: $symbol"
  elif ! grep -qxF -- "$symbol" "$out/library.demangled"; then
    echo "audit: stale allowlist entry (no such library symbol): $symbol"
  elif ! grep -qxF -- "$symbol" "$out/unlinked.names"; then
    echo "audit: stale allowlist entry (a shipped binary links it): $symbol"
  else
    continue
  fi
  failures=$((failures + 1))
done < "$out/allowlist.entries"
sed -e 's/[[:space:]]*#.*$//' "$out/allowlist.entries" > "$out/allowed.txt"

while IFS=$'\t' read -r symbol lib; do
  grep -qxF -- "$symbol" "$out/allowed.txt" && continue
  echo "audit: linked only by tests ($lib): $symbol"
  failures=$((failures + 1))
done < "$out/unlinked.demangled"

echo "audit: $(wc -l < "$out/library.tsv") strong library symbols," \
     "$(wc -l < "$out/unlinked.demangled") linked by none of" \
     "$(wc -l <<< "$binaries") shipped binaries," \
     "$(wc -l < "$out/allowlist.entries") allowlisted; $failures finding(s)"
[[ $failures -eq 0 ]]
