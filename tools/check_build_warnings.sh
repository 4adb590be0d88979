#!/usr/bin/env bash
# Fails when a gcc build log holds a warning raised by the project's own
# code, so the tree stays warning-free and a new warning cannot hide behind
# an old one.
#
# Usage (from the source root, on the log of a full build):
#   cmake --build build -j 2>&1 | tee build.log
#   tools/check_build_warnings.sh build.log
#
# gcc prints each warning's include and inline chain ("In file included
# from X", "from X", "inlined from '...' at X") ahead of the warning line,
# so a warning that fires inside a standard-library header still names the
# project file that set it off. A line that starts with, or is included or
# inlined from, a path under src/, tests/, bench/ or examples/ is therefore
# part of a project warning. Third-party sources (googletest, the standard
# library) reached from anywhere else do not count.

set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_LOG" >&2
  exit 2
fi

root="$(pwd)"
# Quote the root for an extended regular expression: every character other
# than letters, digits, '_', '/' and '-' goes into its own bracket.
root_re="$(printf '%s' "${root}" | sed 's|[^[:alnum:]_/-]|[&]|g')"
dirs="${root_re}/(src|tests|bench|examples)/"

if grep -nE "^${dirs}|(from|at) ${dirs}" "$1"; then
  echo "error: the build log above names warnings in the project's own" \
       "sources (${root})" >&2
  exit 1
fi
echo "no warnings from src/, tests/, bench/ or examples/"
