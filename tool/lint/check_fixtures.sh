#!/bin/bash
# Seeded-violation check for the linter: each seeded fixture must trip
# its rule at every site, and each clean counterpart must lint clean.
#   fix_retained_row.ml   -> 5x retained-exec-row; fix_copied_row.ml clean
#   fix_relation_write.ml -> 6x relation-write;    fix_relation_read.ml clean
# Run from the directory holding lint.exe (dune runs it in
# _build/default/tool/lint via runtest).
set -u
fail=0

# seeded FIXTURE RULE WANT: exit 1 with exactly WANT diagnostics of RULE
seeded() {
  out=$(./lint.exe "fixtures/$1.ml" 2>&1)
  code=$?
  hits=$(printf '%s\n' "$out" | grep -c "\[$2\]")
  if [ "$code" -ne 1 ]; then
    echo "FAIL $1: exit $code (want 1)"
    echo "$out"
    fail=1
  elif [ "$hits" -ne "$3" ]; then
    echo "FAIL $1: $hits $2 diagnostics (want $3)"
    echo "$out"
    fail=1
  else
    echo "ok: $1 -> ${3}x $2"
  fi
}

# clean FIXTURE: exit 0
clean() {
  out=$(./lint.exe "fixtures/$1.ml" 2>&1)
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL $1: exit $code (want 0)"
    echo "$out"
    fail=1
  else
    echo "ok: $1 -> clean"
  fi
}

seeded fix_retained_row retained-exec-row 5
clean fix_copied_row
seeded fix_relation_write relation-write 6
clean fix_relation_read

exit $fail
