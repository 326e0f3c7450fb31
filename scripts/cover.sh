#!/bin/sh
# cover.sh — per-package coverage gate.
#
# Reads the output of `go test -cover` over the whole module, prints a
# per-package table, and fails when any gated package (the serving path, its
# observability layer, and the predictor backends) falls below the floor.
# Extra packages are reported but not gated: the gate should catch
# regressions where tests exist, not force covering the figure drivers'
# long-running experiment code.
#
# Usage: scripts/cover.sh [floor-percent [test-output]]   (default 80)
#
# test-output is what a passing `go test -cover ./...` printed — `make test`
# leaves one, so `make verify` and CI gate on the run they already paid for.
# Without it the script runs the suite itself.

set -eu

FLOOR="${1:-80}"
GATED="predictddl/internal/core predictddl/internal/cluster predictddl/internal/obs predictddl/internal/regress"

if [ -n "${2:-}" ]; then
    out="$2"
    [ -r "$out" ] || { echo "cover.sh: cannot read $out" >&2; exit 1; }
else
    out="$(mktemp)"
    trap 'rm -f "$out"' EXIT
    # -coverprofile per package would need a merge step; `-cover` alone
    # prints the per-package percentage, which is all the gate needs.
    go test -count=1 -cover ./... >"$out" 2>&1 || { cat "$out"; exit 1; }
fi

printf '%-40s %8s %6s\n' "package" "coverage" "gate"
fail=0
seen=""
while IFS= read -r line; do
    case "$line" in
    ok*) ;;
    *) continue ;;
    esac
    pkg=$(printf '%s\n' "$line" | awk '{print $2}')
    pct=$(printf '%s\n' "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    [ -n "$pct" ] || pct="0.0"
    gate="-"
    for g in $GATED; do
        if [ "$pkg" = "$g" ]; then
            gate="ok"
            seen="$seen $g"
            if awk -v p="$pct" -v f="$FLOOR" 'BEGIN { exit !(p < f) }'; then
                gate="FAIL"
                fail=1
            fi
        fi
    done
    printf '%-40s %7s%% %6s\n' "$pkg" "$pct" "$gate"
done <"$out"

# A handed-in output may come from a run that failed or skipped a package;
# a gated package with no "ok" line must not pass by omission.
for g in $GATED; do
    case " $seen " in
    *" $g "*) ;;
    *) echo "cover.sh: no passing result for $g in $out" >&2; fail=1 ;;
    esac
done

if [ "$fail" -ne 0 ]; then
    echo ""
    echo "cover.sh: gated package missing or below the ${FLOOR}% floor" >&2
    exit 1
fi
echo ""
echo "cover.sh: all gated packages at or above ${FLOOR}%"
