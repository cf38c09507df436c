#!/bin/sh
# bench_ab.sh — alternating parent/change pairs of the repository benchmark
# (bash bench/run.sh, BENCHMARK.json), the methodology ROADMAP aim 1 asks of
# every performance statement: each pair runs both sides back to back,
# alternating which side goes first so drift and a noisy neighbour hit both
# equally; every pair's end-to-end metrics and digest= line are printed, then
# per metric the two medians, the old side's quartiles (its own run-to-run
# spread) and who won how many pairs, and last one line per workload saying
# whether all runs of both sides printed the same digest=/events= pair.
#
#   ./scripts/bench_ab.sh HEAD                          # working tree vs HEAD
#   ./scripts/bench_ab.sh -n 12 -w perm_sharded -seed 7 -seconds 5 HEAD
#   ./scripts/bench_ab.sh -w rpc_storm HEAD~3 HEAD      # two commits
#
# OLDREF and NEWREF are git refs, each exported with git archive into a
# temporary directory (under $TMPDIR) where bench/run.sh builds and runs it;
# without NEWREF the new side is the working tree. Without -w every run covers
# all four workloads; -seed and -seconds go to bench/run.sh unchanged, and the
# run length is the same on both sides. A run that fails its checks stops the
# script with that run's output.
set -eu
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 [-n PAIRS] [-w WORKLOAD] [-seed N] [-seconds S] OLDREF [NEWREF]" >&2
    exit 2
}

N=10
ARGS=""
while [ $# -gt 0 ]; do
    case "$1" in
    -n) [ $# -ge 2 ] || usage; N="$2"; shift 2 ;;
    -w) [ $# -ge 2 ] || usage; ARGS="$ARGS --workload $2"; shift 2 ;;
    -seed) [ $# -ge 2 ] || usage; ARGS="$ARGS --seed $2"; shift 2 ;;
    -seconds) [ $# -ge 2 ] || usage; ARGS="$ARGS --seconds $2"; shift 2 ;;
    -*) usage ;;
    *) break ;;
    esac
done
[ $# -ge 1 ] && [ $# -le 2 ] || usage
case "$N" in '' | *[!0-9]* | 0) usage ;; esac
OLDREF="$1"
NEWREF="${2:-}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# checkout REF SIDE: export REF into $WORK/SIDE and print that directory; an
# empty REF is the working tree.
checkout() {
    if [ -z "$1" ]; then
        pwd
        return
    fi
    git rev-parse --verify --quiet "$1^{commit}" >/dev/null || {
        echo "$0: $1 is not a commit" >&2
        exit 2
    }
    mkdir "$WORK/$2"
    git archive "$1" | tar -x -C "$WORK/$2"
    echo "$WORK/$2"
}
OLDDIR="$(checkout "$OLDREF" old)"
NEWDIR="$(checkout "$NEWREF" new)"
echo "== old: $OLDREF   new: ${NEWREF:-working tree}   pairs: $N   args:${ARGS:- (benchmark defaults)} =="

# run PAIR SIDE DIR: one benchmark run; appends "PAIR SIDE WORKLOAD METRIC
# VALUE" rows to $WORK/runs and prints one line per workload.
run() {
    # ARGS is split on purpose: it holds option words, never paths.
    # shellcheck disable=SC2086
    (cd "$3" && bash bench/run.sh $ARGS) >"$WORK/out" 2>&1 || {
        cat "$WORK/out"
        echo "$0: $2 side failed in pair $1" >&2
        exit 1
    }
    awk -v pair="$1" -v side="$2" -v runs="$WORK/runs" -v digests="$WORK/digests" '
    $1 == "info" && $3 ~ /^digest=/ {
        w = $2; if (!(w in line)) order[++k] = w; line[w] = $3 " " $4
        print w, side, $3, $4 >> digests
    }
    $1 == "metric" {
        print pair, side, $2, $3, $4 >> runs
        line[$2] = line[$2] " " $3 "=" $4
    }
    END { for (i = 1; i <= k; i++) printf "  %s %-13s %s\n", side, order[i], line[order[i]] }
    ' "$WORK/out"
}

: >"$WORK/runs"
: >"$WORK/digests"
i=1
while [ "$i" -le "$N" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        echo "== pair $i/$N (old first) =="
        run "$i" old "$OLDDIR"
        run "$i" new "$NEWDIR"
    else
        echo "== pair $i/$N (new first) =="
        run "$i" new "$NEWDIR"
        run "$i" old "$OLDDIR"
    fi
    i=$((i + 1))
done

# Per workload and metric: medians, the old side's quartiles, pair wins.
# Direction and bound of each end-to-end metric come from BENCHMARK.json
# (one metric per line, the only lines with a "bound").
awk -v n="$N" '
function field(s, key,    m) {
    m = s
    if (!sub(".*\"" key "\": *\"?", "", m)) return ""
    sub("[\",}].*", "", m)
    return m
}
# quantile p of v[1..n] by linear interpolation between order statistics.
function quantile(v, n, p,    i, j, t, s, pos, lo) {
    for (i = 1; i <= n; i++) s[i] = v[i]
    for (i = 2; i <= n; i++) {
        t = s[i]
        for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
        s[j + 1] = t
    }
    pos = 1 + (n - 1) * p
    lo = int(pos)
    if (lo >= n) return s[n]
    return s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
}
FNR == NR {
    if ($0 ~ /"bound"/) { m = field($0, "name"); better[m] = field($0, "better"); bound[m] = field($0, "bound") }
    next
}
{
    key = $3 SUBSEP $4
    if (!(key in seen)) { seen[key] = 1; keys[++nk] = key }
    val[$2, key, $1] = $5 + 0
}
END {
    for (k = 1; k <= nk; k++) {
        key = keys[k]
        split(key, part, SUBSEP)
        if (part[1] != workload) {
            workload = part[1]
            printf "\n== %s: %d pairs ==\n", workload, n
            printf "%-18s %12s %12s %12s %12s %8s %6s %-10s %s\n", "metric", "old_median", "old_q1", "old_q3", "new_median", "change", "bound", "in_spread", "pairs new/old/tie"
        }
        nw = ow = tie = 0
        for (i = 1; i <= n; i++) {
            o[i] = val["old", key, i]
            c[i] = val["new", key, i]
            d = (better[part[2]] == "higher") ? c[i] - o[i] : o[i] - c[i]
            if (d > 0) nw++; else if (d < 0) ow++; else tie++
        }
        om = quantile(o, n, 0.5); q1 = quantile(o, n, 0.25); q3 = quantile(o, n, 0.75)
        cm = quantile(c, n, 0.5)
        diff = cm - om; if (diff < 0) diff = -diff
        printf "%-18s %12.6g %12.6g %12.6g %12.6g %+7.1f%% %6s %-10s %d/%d/%d\n", part[2], om, q1, q3, cm, \
            (om != 0 ? 100 * (cm - om) / om : 0), bound[part[2]], (diff <= q3 - q1 ? "yes" : "no"), nw, ow, tie
    }
}' BENCHMARK.json "$WORK/runs"

# Per workload: did every run, on both sides, simulate the same thing? One
# line each, listing every distinct digest=/events= pair and which side
# printed it how often when they differ.
awk -v runs=$((2 * N)) '
{
    key = $3 " " $4
    if (!($1 in nd)) order[++k] = $1
    if (!(($1, key) in seen)) { seen[$1, key] = 1; nd[$1]++; pairs[$1, nd[$1]] = key }
    side[$1, key, $2]++
}
END {
    print ""
    for (i = 1; i <= k; i++) {
        w = order[i]
        if (nd[w] == 1) {
            printf "== %s: digest same in all %d runs: %s ==\n", w, runs, pairs[w, 1]
            continue
        }
        printf "== %s: digest MOVED, %d distinct pairs over %d runs:", w, nd[w], runs
        for (j = 1; j <= nd[w]; j++) {
            key = pairs[w, j]
            printf " [%s old %d new %d]", key, side[w, key, "old"], side[w, key, "new"]
        }
        printf " ==\n"
    }
}' "$WORK/digests"
