#!/bin/sh
# Usage: serve_cli_test.sh <path to the semtag_serve binary>
#
# semtag_serve accepts the repo benchmark's daemon command line: the
# serve_cascade flag list of perfbench's DaemonArgs, verbatim, plus a
# metrics export. The daemon starts, listens, and drains on SIGTERM with
# exit status 0. A bad command line exits 2 before any training, with a
# message naming the flag.
serve="$1"
. "$(dirname "$0")/expect_rejected.sh"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$serve" --dataset SUGG --records 2000 --seed 1 --model CASCADE \
  --port 0 --batch-cap 32 --deadline-us 1000 --queue-cap 1024 \
  --cascade SVM+CNN --budget 0.5 "--metrics=$tmp/metrics.json" \
  >"$tmp/out" 2>"$tmp/err" &
pid=$!
tries=0
until grep -q "listening on port" "$tmp/out"; do
  tries=$((tries + 1))
  if ! kill -0 "$pid" 2>/dev/null || [ "$tries" -gt 1800 ]; then break; fi
  sleep 0.1
done
kill -TERM "$pid" 2>/dev/null
wait "$pid"
rc=$?
if [ "$rc" -ne 0 ] || ! grep -q "^drained:" "$tmp/out" ||
   [ ! -s "$tmp/metrics.json" ]; then
  echo "FAIL: benchmark daemon args exited $rc; want 0, a drained: line" \
       "and a metrics export"
  cat "$tmp/out" "$tmp/err"
  fail=1
else
  echo "ok: benchmark daemon args -> $(grep '^drained:' "$tmp/out")"
fi

expect_rejected "--no-such-flag" "$serve" --dataset SUGG --no-such-flag
expect_rejected "--port" "$serve" --dataset SUGG --port abc
expect_rejected "--replan-pair" \
  "$serve" --dataset SUGG --replan --replan-pair not-a-pair
expect_rejected "--replan-epoch" \
  "$serve" --dataset SUGG --replan --replan-epoch 0
exit $fail
