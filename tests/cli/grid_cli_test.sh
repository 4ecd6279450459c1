#!/bin/sh
# Usage: grid_cli_test.sh <path to the semtag binary>
#
# `semtag grid` rejects a bad selection with exit status 2 and a message
# naming the problem, before any cell runs: an unknown dataset or model,
# and a name given twice (which would otherwise enumerate duplicate cells).
# Every subcommand parses its own flags as strictly: a misspelled flag, a
# flag of another subcommand, a value given to a presence-only flag or one
# out of range exits 2 naming the flag, before any data is read.
semtag="$1"
. "$(dirname "$0")/expect_rejected.sh"
expect_rejected "model LR given twice" \
  "$semtag" grid --datasets HETER --models LR,LR --no-cache
expect_rejected "dataset HETER given twice" \
  "$semtag" grid --datasets HETER,HETER --models LR --no-cache
expect_rejected "unknown model NOPE" \
  "$semtag" grid --datasets HETER --models NOPE --no-cache
expect_rejected "unknown dataset NOPE" \
  "$semtag" grid --datasets NOPE --models LR --no-cache
expect_rejected "--modle" "$semtag" train --data d.csv --modle LR --out m
expect_rejected "--dataset" "$semtag" grid --dataset HETER
expect_rejected "--explain" "$semtag" profile --data x --explain
expect_rejected "--no-cache" "$semtag" grid --models LR --no-cache=yes
expect_rejected "--budget" "$semtag" cascade --data x --budget 101
expect_rejected "unknown command 'nope'" "$semtag" nope
exit $fail
