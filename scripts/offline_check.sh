#!/usr/bin/env bash
# Old name of the tier-1 gate, kept so its callers keep working: the
# workspace has no external crates any more, so cargo itself runs offline.
exec "$(dirname "$0")/check.sh" fast
