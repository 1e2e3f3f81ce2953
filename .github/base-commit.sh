#!/bin/sh
# Prints the commit a CI job compares HEAD against. The argument is the
# pull request's base sha or the push's "before" sha; when that commit
# is unreachable (a first push reports an all-zero "before"), HEAD's
# parent stands in, and when neither is reachable nothing is printed.
base="$1"
if ! git cat-file -e "$base^{commit}" 2>/dev/null; then
  base=$(git rev-parse -q --verify HEAD~1 || true)
fi
echo "$base"
