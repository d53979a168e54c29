#!/bin/sh
# Usage: sh bench_cli.sh JITISE
#
# `jitise bench vm --workloads` rejects an unknown or empty workload name
# as a usage error (exit 124) whose message lists the registry.
jitise=$1
for w in nosuch ''; do
  msg=$("$jitise" bench vm --workloads "$w" 2>&1 >/dev/null)
  status=$?
  if [ "$status" != 124 ]; then
    echo "--workloads '$w': exit $status, expected 124: $msg"
    exit 1
  fi
  flat=$(printf '%s' "$msg" | tr -s ' \n' '  ')
  case "$flat" in
  *"unknown workload \"$w\" (have: 164.gzip, "*"phased.flash)"*) ;;
  *)
    echo "--workloads '$w': unexpected message: $msg"
    exit 1
    ;;
  esac
done

# Globals past the VM memory cap are a named guest fault, not an
# uncaught host exception (cmdliner's exit 125).
src=$(mktemp)
printf 'int a[200000000]; int main(int n) { a[5] = 1; return a[5]; }\n' >"$src"
msg=$("$jitise" run "$src" 2>&1 >/dev/null)
status=$?
rm -f "$src"
if [ "$status" = 125 ] || [ "$status" = 0 ]; then
  echo "run: globals past the memory cap: exit $status: $msg"
  exit 1
fi
case "$msg" in
*"globals: out of memory"*) ;;
*)
  echo "run: globals past the memory cap: unexpected message: $msg"
  exit 1
  ;;
esac
