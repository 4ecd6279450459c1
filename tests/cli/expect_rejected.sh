# Sourced by the CLI tests. expect_rejected <stderr substring> <command...>
# runs the command and wants exit status 2 with the substring in stderr;
# a mismatch prints why and sets fail=1. A command that accepts its bad
# argument may start serving, so it is killed after 60 s (status 124).
fail=0
expect_rejected() {
  want="$1"
  shift
  err=$(timeout 60 "$@" 2>&1 >/dev/null)
  rc=$?
  case "$err" in
    *"$want"*) matched=1 ;;
    *) matched=0 ;;
  esac
  if [ "$rc" -ne 2 ] || [ "$matched" -ne 1 ]; then
    echo "FAIL: $* exited $rc with stderr '$err'; want 2 and '$want'"
    fail=1
  else
    echo "ok: $* -> $err"
  fi
}
