#!/usr/bin/env bash
# Dead-export check: lists every `val` declared in a lib/**/*.mli whose
# name appears in no .ml/.mli file outside that module's own .ml/.mli
# pair, across lib/, bin/, bench/, perfbench/, test/ and examples/.
# The match is by name, so the check is conservative: a name shared
# with anything else counts as used. Prints "path.mli: name" per dead
# export and exits 1 if there is any.
#
#   scripts/dead_exports.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "<identifier> <module pair>" for every identifier in every source file
find lib bin bench perfbench test examples -name _build -prune -o \
  \( -name '*.ml' -o -name '*.mli' \) -print |
  while read -r f; do
    { grep -ohE "[A-Za-z_][A-Za-z0-9_']*" "$f" || true; } | sed "s|\$| ${f%.*}|"
  done | sort -u >"$tmp/words"

# "<val name> <module pair>" for every value a lib/ interface exports
find lib -name _build -prune -o -name '*.mli' -print |
  while read -r f; do
    sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1/p" "$f" |
      sed "s|\$| ${f%.*}|"
  done | sort -u >"$tmp/vals"

awk 'NR == FNR { seen[$1] = seen[$1] " " $2; next }
     {
       used = 0
       n = split(seen[$1], owners, " ")
       for (k = 1; k <= n; k++) if (owners[k] != $2) used = 1
       if (!used) print $2 ".mli: " $1
     }' "$tmp/words" "$tmp/vals" | sort >"$tmp/dead"

if [ -s "$tmp/dead" ]; then
  echo "exported but unused outside their module:"
  cat "$tmp/dead"
  exit 1
fi
echo "dead exports: none"
