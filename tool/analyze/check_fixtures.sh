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
expect Fix_table_instance unguarded-write

# Both unguarded writes of a fixture are flagged: for Fix_queue the push,
# whose queue is the second argument, and the take; for Fix_stack the
# push, whose stack is the second argument, and the pop.
expect_two_writes() {
  name=$1
  out=$(./analyze.exe "$objs/afix__$name.cmt" 2>&1)
  code=$?
  writes=$(printf '%s\n' "$out" | grep -c '\[unguarded-write\]')
  if [ "$code" -ne 1 ] || [ "$writes" -ne 2 ]; then
    echo "FAIL $name: exit $code, $writes unguarded-write(s) (want 1 and 2)"
    echo "$out"
    fail=1
  else
    echo "ok: $name -> 2 unguarded-write"
  fi
}

expect_two_writes Fix_queue
expect_two_writes Fix_stack

# The inventory lists each container field of a record, mutable or not.
out=$(./analyze.exe --inventory "$objs/afix__Fix_container_field.cmt" 2>&1)
code=$?
fields=$(printf '%s\n' "$out" | grep -c 'container field')
if [ "$code" -ne 0 ] || [ "$fields" -ne 2 ] \
    || ! printf '%s\n' "$out" | grep -q 'Fix_container_field\.r\.tbl .*container field' \
    || ! printf '%s\n' "$out" | grep -q 'Fix_container_field\.r\.arr .*container field'; then
  echo "FAIL Fix_container_field: exit $code, $fields container field(s) (want 0, r.tbl and r.arr)"
  echo "$out"
  fail=1
else
  echo "ok: Fix_container_field -> 2 container fields"
fi

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
