#!/bin/sh
# Usage: model_cli_test.sh <path to the semtag binary>
#
# The happy paths of the model subcommands: `semtag train` writes an LR and
# an SVM checkpoint, `evaluate` and `predict --explain` load each one back,
# and `cascade` trains a simple-only and a pinned SVM+CNN cascade. Every
# command runs on a small generated CSV under a timeout, must exit 0, and
# must print its plan or metric lines.
semtag="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# 300 rows of word salad; "superb" marks most positives and "dreadful"
# most negatives, with one row in seven drawn the other way.
awk 'BEGIN {
  srand(7);
  split("the a food room staff view price menu night service table bed " \
        "walk street music coffee bread window floor light", w, " ");
  print "text,label";
  for (i = 0; i < 300; i++) {
    label = i % 2;
    cue = (label == (i % 7 == 0 ? 0 : 1)) ? "superb" : "dreadful";
    text = cue;
    for (j = 0; j < 8; j++) text = text " " w[int(rand() * 20) + 1];
    print text "," label;
  }
}' > "$dir/d.csv"

fail=0
# run <command...>: runs it, wants exit status 0, keeps its output in $out.
run() {
  out=$(timeout 300 "$@" 2>&1)
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: $* exited $rc:"
    echo "$out"
    fail=1
  else
    echo "ok: $*"
  fi
}
# want <substring>: the last command printed it.
want() {
  case "$out" in
    *"$1"*) ;;
    *)
      echo "FAIL: no '$1' in:"
      echo "$out"
      fail=1
      ;;
  esac
}

for model in LR SVM; do
  run "$semtag" train --data "$dir/d.csv" --model "$model" \
    --out "$dir/$model.model"
  want "trained $model on 300 records"
  run "$semtag" evaluate --saved "$dir/$model.model" --data "$dir/d.csv"
  want "F1         "
  want "AUC        "
  run "$semtag" predict --saved "$dir/$model.model" --data "$dir/d.csv" \
    --explain
  want "prediction,score,text"
  want "#   superb"
done
run "$semtag" cascade --data "$dir/d.csv" --pair simple
want "(simple only)"
want "test        F1"
run "$semtag" cascade --data "$dir/d.csv" --pair SVM+CNN --budget 2
want "plan        SVM -> CNN"
want "threshold   "
want "test        F1"
exit $fail
