#!/usr/bin/env sh
# bench.sh runs the full benchmark suite and records every benchmark's
# ns/op, B/op, and allocs/op in BENCH_<label>.json, so the perf trajectory
# is tracked across PRs.
#
# Usage:
#   scripts/bench.sh [label] [extra go test args...]
#
# Without a label the next free integer is used (BENCH_0.json,
# BENCH_1.json, ...). Extra args are passed to `go test`, e.g.
# `scripts/bench.sh pr12 -benchtime=3x`.
#
# The suite is run BENCH_RUNS times (default 3) in separate `go test`
# processes and the per-benchmark minimum is recorded: a single
# -benchtime=1x iteration of a 100 ms benchmark swings tens of percent
# with scheduler noise on a shared box, and the minimum is the standard
# noise-robust estimate of a benchmark's true cost. Separate processes —
# not -count — so suite-cached benchmarks keep their cold-first-run
# semantics and the numbers stay comparable across recordings. Each
# entry also records its time/op spread over the runs (spread_pct), and
# an "_env" entry records the core count (nproc) and the run count.
#
# When a prior BENCH_<n>.json exists, a benchstat-style delta table
# (time/op, B/op, allocs/op with percent change per benchmark) is printed
# against the *latest* prior recording — regressions are judged against
# where the tree actually is, not against a baseline many PRs stale — and
# the run fails (exit 1) when any benchmark regressed by more than the
# gate: time/op beyond BENCH_GATE_PCT percent (default 20), or allocs/op
# beyond BENCH_GATE_ALLOC_PCT percent (default 20). That failure is what
# lets the bench-hotpath CI job actually gate. Small baselines are
# reported but not judged — time/op under BENCH_GATE_FLOOR_NS (default
# 1e6 ns) is scheduler noise at -benchtime=1x, and allocs/op under
# BENCH_GATE_ALLOC_FLOOR (default 100) flips on incidental one-off
# allocations rather than a hot-path change.
set -eu
cd "$(dirname "$0")/.."

# Preflight: the benchmarks time code that must first pass the repo's own
# static analyzers — a run over lint-dirty code is not worth recording.
scripts/lint.sh

label="${1:-}"
[ "$#" -gt 0 ] && shift
if [ -z "$label" ]; then
    n=0
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
    label=$n
fi
out="BENCH_${label}.json"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
runs="${BENCH_RUNS:-3}"
r=0
while [ "$r" -lt "$runs" ]; do
    echo "bench: run $((r + 1))/$runs" >&2
    go test -run '^$' -bench . -benchtime=1x -benchmem "$@" ./... | tee /dev/stderr >> "$raw"
    r=$((r + 1))
done

# The host's core count and the run count go into the recording's
# "_env" entry: parallel speedups and run-to-run spread only mean
# something next to them.
cores="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"

awk -v cores="$cores" -v runs="$runs" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; jps = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
        if ($i == "joules/s") jps = $(i - 1)
    }
    if (ns == "") next
    if (!(name in seen)) {
        seen[name] = 1
        names[n_names++] = name
        min_ns[name] = ns; max_ns[name] = ns; min_by[name] = bytes; min_al[name] = allocs
        max_jps[name] = jps
        next
    }
    if (ns + 0 < min_ns[name] + 0) min_ns[name] = ns
    if (ns + 0 > max_ns[name] + 0) max_ns[name] = ns
    if (bytes != "" && (min_by[name] == "" || bytes + 0 < min_by[name] + 0)) min_by[name] = bytes
    if (allocs != "" && (min_al[name] == "" || allocs + 0 < min_al[name] + 0)) min_al[name] = allocs
    # joules/s is a throughput: keep the best (max) run, the noise-robust
    # counterpart of the time/op minimum. Recorded, never gated.
    if (jps != "" && (max_jps[name] == "" || jps + 0 > max_jps[name] + 0)) max_jps[name] = jps
}
END {
    print "{"
    printf "  \"_env\": {\"nproc\": %d, \"runs\": %d}%s\n", cores, runs, (n_names > 0 ? "," : "")
    for (i = 0; i < n_names; i++) {
        name = names[i]
        entry = sprintf("  %c%s%c: {\"ns_per_op\": %s", 34, name, 34, min_ns[name])
        # Run-to-run spread of time/op: (max - min) / min over the runs.
        if (min_ns[name] + 0 > 0) entry = entry sprintf(", \"spread_pct\": %.1f", (max_ns[name] - min_ns[name]) / min_ns[name] * 100)
        if (min_by[name] != "") entry = entry sprintf(", \"bytes_per_op\": %s", min_by[name])
        if (min_al[name] != "") entry = entry sprintf(", \"allocs_per_op\": %s", min_al[name])
        if (max_jps[name] != "") entry = entry sprintf(", \"joules_per_wallclock_s\": %s", max_jps[name])
        entry = entry "}"
        printf "%s%s\n", entry, (i < n_names - 1 ? "," : "")
    }
    print "}"
}' "$raw" > "$out"

echo "wrote $out" >&2

# Benchstat-style comparison against the most recent prior recording: the
# highest-numbered BENCH_<n>.json that is not the file just written (so a
# re-run of an old label still compares forward). One section per metric,
# each row old -> new with the percent change. Pure awk on the JSON we
# just wrote (one "name": {...} entry per line), so no extra tools.
base=""
n=0
while [ -e "BENCH_${n}.json" ]; do
    [ "BENCH_${n}.json" != "$out" ] && base="BENCH_${n}.json"
    n=$((n + 1))
done
if [ -n "$base" ]; then
    awk -v base="$base" -v gate="${BENCH_GATE_PCT:-20}" -v floor="${BENCH_GATE_FLOOR_NS:-1000000}" \
        -v agate="${BENCH_GATE_ALLOC_PCT:-20}" -v afloor="${BENCH_GATE_ALLOC_FLOOR:-100}" '
    function metric(s, key,   m) {
        if (match(s, "\"" key "\": [0-9.eE+-]+")) {
            m = substr(s, RSTART, RLENGTH)
            sub(/.*: /, "", m)
            return m
        }
        return ""
    }
    /^  "/ {
        split($0, q, "\"")
        name = q[2]
        if (FILENAME == base) {
            in_base[name] = 1
            b_ns[name] = metric($0, "ns_per_op")
            b_by[name] = metric($0, "bytes_per_op")
            b_al[name] = metric($0, "allocs_per_op")
        } else if (!(name in seen)) {
            seen[name] = 1
            names[n_names++] = name
            n_ns[name] = metric($0, "ns_per_op")
            n_by[name] = metric($0, "bytes_per_op")
            n_al[name] = metric($0, "allocs_per_op")
        }
    }
    function section(title, bv, nv,   i, name, ov, cv, delta) {
        printf "\n%-44s %15s %15s %9s\n", title, "old", "new", "delta"
        for (i = 0; i < n_names; i++) {
            name = names[i]
            if (!(name in in_base)) continue
            ov = bv[name]; cv = nv[name]
            if (ov == "" || cv == "") continue
            if (ov + 0 == 0)
                delta = (cv + 0 == 0) ? "+0.0%" : "n/a"
            else
                delta = sprintf("%+.1f%%", (cv - ov) / ov * 100)
            printf "%-44s %15.0f %15.0f %9s\n", name, ov, cv, delta
        }
    }
    END {
        printf "\ndelta vs %s:\n", base
        section("time/op (ns)", b_ns, n_ns)
        section("alloc/op (B)", b_by, n_by)
        section("allocs/op", b_al, n_al)
        # Regression gates: fail on any time/op or allocs/op increase
        # beyond its threshold. Only benchmarks present in both files and
        # above the metric floor are judged.
        bad = 0
        for (i = 0; i < n_names; i++) {
            name = names[i]
            if (!(name in in_base)) continue
            ov = b_ns[name]; cv = n_ns[name]
            if (ov != "" && cv != "" && ov + 0 >= floor + 0) {
                pct = (cv - ov) / ov * 100
                if (pct > gate + 0) {
                    printf "bench: %s time/op regressed %+.1f%% (gate %s%%)\n", name, pct, gate
                    bad = 1
                }
            }
            ov = b_al[name]; cv = n_al[name]
            if (ov != "" && cv != "" && ov + 0 >= afloor + 0) {
                pct = (cv - ov) / ov * 100
                if (pct > agate + 0) {
                    printf "bench: %s allocs/op regressed %+.1f%% (gate %s%%)\n", name, pct, agate
                    bad = 1
                }
            }
        }
        exit bad
    }' "$base" "$out" >&2 || {
        echo "bench: FAIL — regression beyond gate (time/op ${BENCH_GATE_PCT:-20}%, allocs/op ${BENCH_GATE_ALLOC_PCT:-20}%) vs $base" >&2
        exit 1
    }
fi
