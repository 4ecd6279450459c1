#!/bin/sh
# Usage: grid_cli_test.sh <path to the semtag binary>
#
# `semtag grid` rejects a bad selection with exit status 2 and a message
# naming the problem, before any cell runs: an unknown dataset or model,
# and a name given twice (which would otherwise enumerate duplicate cells).
semtag="$1"
fail=0
expect_rejected() {  # <stderr substring> <grid flags...>
  want="$1"
  shift
  err=$("$semtag" grid "$@" 2>&1 >/dev/null)
  rc=$?
  case "$err" in
    *"$want"*) matched=1 ;;
    *) matched=0 ;;
  esac
  if [ "$rc" -ne 2 ] || [ "$matched" -ne 1 ]; then
    echo "FAIL: semtag grid $* exited $rc with stderr '$err';" \
         "want 2 and '$want'"
    fail=1
  else
    echo "ok: semtag grid $* -> $err"
  fi
}
expect_rejected "model LR given twice" \
  --datasets HETER --models LR,LR --no-cache
expect_rejected "dataset HETER given twice" \
  --datasets HETER,HETER --models LR --no-cache
expect_rejected "unknown model NOPE" \
  --datasets HETER --models NOPE --no-cache
expect_rejected "unknown dataset NOPE" \
  --datasets NOPE --models LR --no-cache
exit $fail
