#!/bin/sh
# Exported-name audit: list every `val` of lib/**/*.mli that no code in
# lib/ bin/ perfbench/ examples/ calls from outside the module's own
# .ml, and fail on any such name that scripts/test_hooks.txt does not
# keep (one hook per line: `Module.name reason`).  A keep-list entry
# that no longer names an uncalled val fails too, so the list stays
# exact.  Prints the lib/ bin/ line count (.ml + .mli) last.
#
# A caller is a `Module.name` reference outside comments, or a bare
# `name` in a file that opens `Module` (`open M`, `let open M in`,
# `M.( ... )`).  Vals of a nested `module X : sig ... end` count as
# `X.name`; operators are not audited.
#
# Usage: scripts/exports.sh        (from anywhere; exit 1 on a finding)
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d /tmp/ncdrf-exports.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

# Strip OCaml comments (nested) while keeping string and character
# literals intact, so that prose and doc references are not callers.
strip_comments() {
  awk '
  BEGIN { depth = 0; instr = 0 }
  {
    out = ""; n = length($0); i = 1
    while (i <= n) {
      c = substr($0, i, 1); c2 = substr($0, i, 2)
      if (instr) {
        if (depth == 0) out = out c
        if (c == "\\") { if (depth == 0) out = out substr($0, i + 1, 1); i += 2; continue }
        if (c == "\"") instr = 0
        i++; continue
      }
      if (c2 == "(*") { depth++; i += 2; continue }
      if (depth > 0 && c2 == "*)") { depth--; i += 2; continue }
      if (c == "\"") { instr = 1; if (depth == 0) out = out c; i++; continue }
      if (depth == 0 && c == "\x27" && substr($0, i + 2, 1) == "\x27") {
        out = out substr($0, i, 3); i += 3; continue
      }
      if (depth == 0) out = out c
      i++
    }
    print out
  }' "$1"
}

# refs: one `file Module.name` line per qualified reference.
: > "$tmp/refs"
for f in lib/*/*.ml bin/*.ml perfbench/*.ml examples/*.ml; do
  strip_comments "$f" > "$tmp/src"
  grep -oE "\\b[A-Z][A-Za-z0-9_]*\\.[a-z_][A-Za-z0-9_']*" "$tmp/src" \
    | sed "s|^|$f |" >> "$tmp/refs" || true
  # Local and global opens of a module make its bare names callers.
  for m in $(grep -oE "(\\bopen|\\blet open) [A-Z][A-Za-z0-9_.]*|\\b[A-Z][A-Za-z0-9_]*\\.\\(" "$tmp/src" \
             | sed -E 's/^(let )?open //; s/\.\($//; s/.*\.//' | sort -u); do
    grep -oE "\\b[a-z_][A-Za-z0-9_']*" "$tmp/src" | sort -u \
      | sed "s|^|$f $m.|" >> "$tmp/refs" || true
  done
done
sort -u "$tmp/refs" -o "$tmp/refs"

# vals: one `Module.name mli:line own.ml` line per exported value.
: > "$tmp/vals"
for mli in lib/*/*.mli; do
  base=$(basename "$mli" .mli)
  top=$(printf '%s' "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  awk -v top="$top" -v mli="$mli" -v own="${mli%.mli}.ml" '
    /^module [A-Z][A-Za-z0-9_]* *: *sig/ { sub(/^module /, ""); sub(/[ :].*/, ""); sub_m = $0; next }
    /^end/ { sub_m = ""; next }
    /^val [a-z_]/ { name = $2; sub(/:.*/, "", name); print top "." name, mli ":" NR, own; next }
    /^  val [a-z_]/ && sub_m != "" { name = $2; sub(/:.*/, "", name); print sub_m "." name, mli ":" NR, own }
  ' "$mli" >> "$tmp/vals"
done

# An exported name is called when some file other than its own .ml
# references it.
awk 'NR == FNR { split($0, a, " "); if (!(a[2] in seen)) seen[a[2]] = ""; seen[a[2]] = seen[a[2]] " " a[1]; next }
     { files = ($1 in seen) ? seen[$1] : ""; n = split(files, fs, " "); called = 0
       for (i = 1; i <= n; i++) if (fs[i] != $3) called = 1
       if (!called) print $1, $2 }' "$tmp/refs" "$tmp/vals" | sort > "$tmp/uncalled"

grep -vE '^[[:space:]]*(#|$)' scripts/test_hooks.txt | awk '{ print $1 }' | sort -u > "$tmp/hooks"

status=0
while read -r name where; do
  if grep -qxF "$name" "$tmp/hooks"; then
    echo "hook     $name ($where)"
  else
    echo "UNCALLED $name ($where): no caller outside its module; delete it, drop its val, or keep it in scripts/test_hooks.txt" >&2
    status=1
  fi
done < "$tmp/uncalled"
awk '{ print $1 }' "$tmp/uncalled" > "$tmp/uncalled_names"
while read -r name; do
  if ! grep -qxF "$name" "$tmp/uncalled_names"; then
    echo "STALE    $name: listed in scripts/test_hooks.txt but not an uncalled val" >&2
    status=1
  fi
done < "$tmp/hooks"

lines=$(cat lib/*/*.ml lib/*/*.mli bin/*.ml bin/*.mli | wc -l)
echo "exports: $(wc -l < "$tmp/vals") vals, $(wc -l < "$tmp/hooks") test hooks; lib/ bin/ lines: $lines"
exit "$status"
