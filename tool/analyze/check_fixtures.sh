#!/bin/bash
# Seeded-violation check for tool/analyze: each fixture under
# fixtures/ must make the analyzer exit 1 with its expected diagnostic
# id, and the clean fixture must exit 0.  Run from the directory
# holding analyze.exe and the built fixtures library (dune runs it in
# _build/default/tool/analyze via the runtest alias; the CI analyze
# job does the same by hand).
set -u
objs=fixtures/.afix.objs/byte
fail=0

expect() {
  name=$1
  rule=$2
  cmt="$objs/afix__$name.cmt"
  out=$(./analyze.exe "$cmt" 2>&1)
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL $name: exit $code (want 1)"
    echo "$out"
    fail=1
  elif ! printf '%s\n' "$out" | grep -q "\[$rule\]"; then
    echo "FAIL $name: expected a [$rule] diagnostic"
    echo "$out"
    fail=1
  else
    echo "ok: $name -> $rule"
  fi
}

expect Fix_unguarded unguarded-write
expect Fix_racy racy-global-write
expect Fix_coordinator coordinator-escape
expect Fix_domain_unsafe domain-unsafe
expect Fix_dls dls-capture
expect Fix_sink_handle coordinator-escape

out=$(./analyze.exe "$objs/afix__Fix_clean.cmt" 2>&1)
code=$?
if [ "$code" -ne 0 ]; then
  echo "FAIL Fix_clean: exit $code (want 0)"
  echo "$out"
  fail=1
else
  echo "ok: Fix_clean -> clean"
fi

exit $fail
