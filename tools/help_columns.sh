#!/usr/bin/env bash
# Checks the generated --help of every tool given as an argument: each flag
# line must leave at least one space between the flag and its description,
# and every description (continuation lines included) must start in the
# column the `--help` line's description starts in.
#
#   tools/help_columns.sh build/tools/optdm_served build/tools/optdm_sim ...
set -euo pipefail

status=0
for tool in "$@"; do
  if ! "$tool" --help | awk -v tool="$(basename "$tool")" '
    /^flags:$/ { in_flags = 1; next }
    !in_flags { next }
    /^  --help / { match($0, /^  --help +/); column = RLENGTH }
    { lines[++n] = $0 }
    END {
      if (!column) { print tool ": no --help line"; exit 1 }
      bad = 0
      for (i = 1; i <= n; ++i) {
        line = lines[i]
        if (line == "") continue
        if (line ~ /^  --/) {
          if (!match(line, /^  --[^ ]+ +/) || RLENGTH != column) {
            print tool ": flag runs into its text: " line
            bad = 1
          }
        } else if (!match(line, /^ +/) || RLENGTH != column) {
          print tool ": continuation off column " column ": " line
          bad = 1
        }
      }
      exit bad
    }'; then
    status=1
  fi
done
exit "$status"
