#!/usr/bin/env bash
# Export lint for the lib/ interfaces. Every `val` a lib/**/*.mli
# declares must have a user outside its own .ml/.mli pair, and every
# optional argument such a `val` declares must be passed by some caller
# outside that pair.
#
# A file uses `M.x` only if it mentions `x` qualified by M, one of M's
# nested modules or an alias `module A = ... M` of either, or mentions
# `x` unqualified while it opens or includes M (`open M`, `let open M
# in`, a local open `M.( ... )`, `include M`, or the same through an
# alias); the name bound by a `val`, `let`, `rec` or `and` is no use. A
# label `?l` counts as passed when `~l` or `?l` follows such a
# use of `x` within the same call (up to the next `;`, `in`, infix
# operator or closing bracket). Comments and string literals are
# skipped. Files under perfbench/ count as users like lib/, bin/,
# bench/ and examples/; files under test/ are reported separately.
#
# Prints three lists, one "path.mli: entry" per line:
#   - exports used nowhere outside their module     ("path.mli: x")
#   - exports used only under test/                 ("path.mli: x")
#   - optional labels no caller outside passes      ("path.mli: x ?l")
# and exits 1 if any entry is missing from scripts/test_only_exports.allow
# (one "path.mli: entry  # reason" per line, the reason required), or if
# an allowlist entry has no reason or no longer matches a listed entry.
#
#   scripts/dead_exports.sh
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/test_only_exports.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find lib bin bench perfbench test examples -name _build -prune -o \
  \( -name '*.ml' -o -name '*.mli' \) -print | sort >"$tmp/files"

# shellcheck disable=SC2046
awk '
function cap(s) { return toupper(substr(s, 1, 1)) substr(s, 2) }
function is_ident(t) { return t ~ /^[A-Za-z_][A-Za-z0-9_'"'"']*$/ }
function is_cap(t) { return t ~ /^[A-Z]/ && is_ident(t) }
function push(t) { n = ++ntok[fi]; tok[fi, n] = t }

# Strip comments and string/char literals from one line, keeping state
# across lines; returns the code that is left.
function clean(line,    out, i, c, c2, L) {
  out = ""; L = length(line); i = 1
  while (i <= L) {
    c = substr(line, i, 1); c2 = substr(line, i, 2)
    if (instr) {
      if (c == "\\") { i += 2; continue }
      if (c == "\"") instr = 0
      i++; continue
    }
    if (inqstr) {
      if (c2 == "|}") { inqstr = 0; i += 2; continue }
      i++; continue
    }
    if (c2 == "(*") { depth++; i += 2; continue }
    if (depth > 0 && c2 == "*)") { depth--; i += 2; continue }
    if (c == "\"") { instr = 1; i++; continue }
    if (c2 == "{|") { inqstr = 1; i += 2; continue }
    if (c == "'"'"'") {
      if (substr(line, i + 1, 1) == "\\") {
        i += 2
        while (i <= L && substr(line, i, 1) != "'"'"'") i++
        i++; continue
      }
      if (substr(line, i + 2, 1) == "'"'"'") { i += 3; continue }
    }
    if (depth == 0) out = out c
    i++
  }
  return out
}

FNR == 1 {
  fi = ++nfiles; path[fi] = FILENAME
  pair[fi] = FILENAME; sub(/\.mli?$/, "", pair[fi])
  depth = 0; instr = 0; inqstr = 0
}
{
  s = clean($0)
  while (s != "") {
    if (match(s, /^[ \t\r]+/)) { s = substr(s, RLENGTH + 1); continue }
    if (match(s, /^[~?][a-z_][A-Za-z0-9_'"'"']*/)) { push(substr(s, 1, RLENGTH)); s = substr(s, RLENGTH + 1); continue }
    if (match(s, /^[A-Za-z_0-9][A-Za-z0-9_'"'"']*/)) { push(substr(s, 1, RLENGTH)); s = substr(s, RLENGTH + 1); continue }
    if (match(s, /^[-!$%&*+.\/:<=>?@^|~#]+/)) { push(substr(s, 1, RLENGTH)); s = substr(s, RLENGTH + 1); continue }
    push(substr(s, 1, 1)); s = substr(s, 2)
  }
}

END {
  for (fi = 1; fi <= nfiles; fi++) {
    test_file[fi] = (path[fi] ~ /^test\//)
    for (k = 1; k <= ntok[fi]; k++) {
      t = tok[fi, k]
      if (!is_ident(t)) continue
      has[fi, t] = 1
      # module A = P.Q.M  =>  alias A of M
      if (k > 2 && tok[fi, k - 1] == "=" && is_cap(tok[fi, k - 2]) && tok[fi, k - 3] == "module") {
        j = k
        while (tok[fi, j + 1] == "." && is_cap(tok[fi, j + 2])) j += 2
        alias[fi, tok[fi, k - 2]] = tok[fi, j]
      }
      # open M, open! M, let open M in, include M (last component of a
      # path), and a local open M.( ... ) / M.[ ... ] / M.{ ... }
      if (t == "open" || t == "include") {
        j = k + 1
        if (tok[fi, j] == "!") j++
        if (is_cap(tok[fi, j])) {
          while (tok[fi, j + 1] == "." && is_cap(tok[fi, j + 2])) j += 2
          opened[fi, tok[fi, j]] = 1; opens[fi] = opens[fi] " " tok[fi, j]
        }
      }
      if (is_cap(t) && tok[fi, k + 1] == "." && tok[fi, k + 2] != "" && index("([{", tok[fi, k + 2])) {
        opened[fi, t] = 1; opens[fi] = opens[fi] " " t
      }
      q = (k > 2 && tok[fi, k - 1] == "." && is_cap(tok[fi, k - 2])) ? tok[fi, k - 2] : ""
      if (!((fi, t) in occ)) holders[t] = holders[t] " " fi
      occ[fi, t] = occ[fi, t] " " k "/" q
    }
    # opening an alias opens the module it names
    no = split(opens[fi], os, " ")
    for (o = 1; o <= no; o++)
      if ((fi, os[o]) in alias) opened[fi, alias[fi, os[o]]] = 1
  }

  # Exported vals (and their optional labels) of every lib/ interface.
  nv = 0
  for (fi = 1; fi <= nfiles; fi++) {
    if (path[fi] !~ /^lib\/.*\.mli$/) continue
    m = pair[fi]; sub(/.*\//, "", m); m = cap(m)
    sp = 0; stack[0] = m; cur = 0
    for (k = 1; k <= ntok[fi]; k++) {
      t = tok[fi, k]
      if (t == "module" && is_cap(tok[fi, k + 1]) && tok[fi, k + 2] == ":" && tok[fi, k + 3] == "sig") {
        stack[++sp] = tok[fi, k + 1]; cur = 0; k += 3; continue
      }
      if (t == "end" && sp > 0) { sp--; cur = 0; continue }
      if (t == "val" || t == "type" || t == "module" || t == "exception" || t == "external" || t == "include" || t == "open") cur = 0
      if (t == "val" && tok[fi, k + 1] ~ /^[a-z_]/) {
        cur = ++nv; vfile[nv] = fi; vname[nv] = tok[fi, k + 1]; vmod[nv] = m; vqual[nv] = stack[sp]
        k++; continue
      }
      if (cur && t ~ /^\?/) vlabels[cur] = vlabels[cur] " " substr(t, 2)
    }
  }

  stop = " in let and then else do done with when match if fun function -> ; ;; , | || && = :: <- := |> @@ @ ^ < > <= >= <> == != + - * / "
  for (v = 1; v <= nv; v++) {
    name = vname[v]; m = vmod[v]; qual = vqual[v]; own = pair[vfile[v]]
    used = 0; tused = 0; passed_list = " "
    nh = split(holders[name], hs, " ")
    for (h = 1; h <= nh; h++) {
      fi = hs[h]
      if (pair[fi] == own || !has[fi, m]) continue
      no = split(occ[fi, name], os, " ")
      for (o = 1; o <= no; o++) {
        split(os[o], kq, "/"); k = kq[1] + 0; q = kq[2]
        if (q != "" && q != m && q != qual && alias[fi, q] != m && alias[fi, q] != qual) continue
        # an unqualified name counts only where the module is opened
        if (q == "" && !((fi, qual) in opened)) continue
        # a declaration in an interface, or the name of a definition, is no use
        if (tok[fi, k - 1] == "val" || tok[fi, k - 1] == "let" || tok[fi, k - 1] == "rec" || tok[fi, k - 1] == "and") continue
        if (test_file[fi]) tused = 1; else used = 1
        d = 0
        for (j = k + 1; j <= ntok[fi] && j <= k + 80; j++) {
          t = tok[fi, j]
          if (t == "(" || t == "[" || t == "{" || t == "begin") d++
          else if (t == ")" || t == "]" || t == "}" || t == "end") { if (--d < 0) break }
          else if (d == 0 && index(stop, " " t " ")) break
          else if (t ~ /^[~?][a-z_]/) passed_list = passed_list substr(t, 2) " "
        }
      }
    }
    entry = path[vfile[v]] ": " (qual != m ? qual "." : "") name
    if (!used && !tused) print "dead\t" entry
    else if (!used) print "test\t" entry
    nl = split(vlabels[v], ls, " ")
    for (l = 1; l <= nl; l++)
      if (!index(passed_list, " " ls[l] " ")) print "label\t" entry " ?" ls[l]
  }
}
' $(cat "$tmp/files") | sort -u >"$tmp/found"

fail=0
report() {
  local kind=$1 title=$2
  if grep -q "^$kind	" "$tmp/found"; then
    echo "$title:"
    grep "^$kind	" "$tmp/found" | cut -f2 | while read -r e; do
      if grep -qxF "$e" "$tmp/allowed"; then echo "  $e  (allowlisted)"; else echo "  $e"; fi
    done
  fi
}

# "path.mli: entry" of every allowlist line; a line without a reason fails
: >"$tmp/allowed"
if [ -f "$allow" ]; then
  while IFS= read -r line; do
    case "$line" in '' | '#'*) continue ;; esac
    entry=$(printf '%s\n' "${line%%#*}" | sed -E 's/[[:space:]]+$//')
    reason=$(printf '%s\n' "$line" | sed -nE 's/^[^#]*#[[:space:]]*(.*[^[:space:]]).*/\1/p')
    if [ -z "$reason" ] || [ "$entry" = "$line" ]; then
      echo "$allow: no reason given for: $entry"
      fail=1
    fi
    echo "$entry" >>"$tmp/allowed"
  done <"$allow"
fi

report dead "exported but used nowhere outside their module"
report test "exported but used only under test/"
report label "optional labels no caller outside their module passes"

cut -f2 "$tmp/found" | sort >"$tmp/found_entries"
sort "$tmp/allowed" >"$tmp/allowed_sorted"
if comm -23 "$tmp/found_entries" "$tmp/allowed_sorted" | grep -q .; then
  echo "not in $allow:"
  comm -23 "$tmp/found_entries" "$tmp/allowed_sorted" | sed 's/^/  /'
  fail=1
fi
if comm -13 "$tmp/found_entries" "$tmp/allowed_sorted" | grep -q .; then
  echo "stale entries in $allow (no longer listed above):"
  comm -13 "$tmp/found_entries" "$tmp/allowed_sorted" | sed 's/^/  /'
  fail=1
fi
[ "$fail" = 0 ] || exit 1
echo "export lint: every export has a non-test user or an allowlist entry; every optional label is passed"
