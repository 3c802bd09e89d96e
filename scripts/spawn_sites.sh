#!/usr/bin/env bash
# Lists the thread-spawn sites in src/ and counts them.
#
#   scripts/spawn_sites.sh        print every site and the count
#   scripts/spawn_sites.sh 15     same, and exit 1 if the count exceeds 15
#
# A spawn site is a `std::thread(` construction or an `emplace_back([`
# into a thread vector. Receive loops whose work never blocks belong on
# process_reactor() and timed loops on a timer wheel (DESIGN.md "One rx
# rule" and "One timer rule"); every site left is a loop that blocks.
set -euo pipefail
cd "$(dirname "$0")/.."

sites="$(grep -rnE 'std::thread\(|[a-z_]+\.emplace_back\(\[' src || true)"
count=0
[ -n "$sites" ] && count="$(printf '%s\n' "$sites" | wc -l)"
[ -n "$sites" ] && printf '%s\n' "$sites"
echo "spawn sites in src/: $count"
if [ $# -ge 1 ] && [ "$count" -gt "$1" ]; then
  echo "more than $1 thread-spawn sites in src/" >&2
  exit 1
fi
