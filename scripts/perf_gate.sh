#!/usr/bin/env bash
# perf_gate.sh — benchmark regression gate: base ref vs working tree.
#
# Runs the hot-path benchmark set twice — once in a git worktree of the
# base ref, once in the current tree — renders a benchstat comparison,
# and fails on any of:
#
#   * >PERF_GATE_MAX_REGRESSION_PCT (default 10) slowdown in campaign
#     wall-clock (BenchmarkCampaignWorkers);
#   * >PERF_GATE_MAX_REGRESSION_PCT slowdown in the per-shard world
#     setup cost (BenchmarkShardBuild) — shared frozen blueprints
#     collapsed it from a full generation + all-pairs routing to a
#     lightweight instantiation, and this gate keeps it collapsed;
#   * any allocs/op > 0 on the pooled packet-path, forwarding,
#     scheduler and telemetry benchmarks (BenchmarkCEMarkThroughput,
#     BenchmarkBuildUDPBuf, BenchmarkForwardingPath,
#     BenchmarkSimSchedule, BenchmarkSimScheduleSparse,
#     BenchmarkTelemetryHotPath — the passive-hop fast path and the
#     flight recorder's write path must stay allocation-free);
#   * campaign-level allocations above PERF_GATE_MAX_CAMPAIGN_ALLOCS
#     (default 300000) per BenchmarkCampaignWorkers run — the pooled
#     probe/trace state machines hold a small congested campaign around
#     ~250k allocs, and this gate keeps closure-per-probe regressions
#     out;
#   * >PERF_GATE_MAX_TELEMETRY_PCT (default 2) instrumentation
#     overhead, from BenchmarkCampaignTelemetry's `overhead-%` metric:
#     the benchmark runs plain/instrumented campaign pairs back to back
#     in alternating order and reports the paired difference, so
#     in-process drift (GC pacing) cannot masquerade as telemetry cost
#     — the budget that keeps the flight recorder always-on in the
#     control plane.
#
# Environment knobs:
#   PERF_GATE_BASE                base ref to compare against (default origin/main)
#   PERF_GATE_COUNT               benchmark repetitions (default 5)
#   PERF_GATE_MAX_REGRESSION_PCT  wall-clock slowdown tolerance (default 10)
#   PERF_GATE_MAX_CAMPAIGN_ALLOCS campaign allocs/op ceiling (default 300000)
#   PERF_GATE_MAX_TELEMETRY_PCT   instrumented-campaign overhead tolerance (default 2)
set -euo pipefail

BASE_REF="${PERF_GATE_BASE:-origin/main}"
COUNT="${PERF_GATE_COUNT:-5}"
MAX_PCT="${PERF_GATE_MAX_REGRESSION_PCT:-10}"
MAX_CAMPAIGN_ALLOCS="${PERF_GATE_MAX_CAMPAIGN_ALLOCS:-300000}"
MAX_TELEMETRY_PCT="${PERF_GATE_MAX_TELEMETRY_PCT:-2}"
# Campaign runs few iterations (each is a whole campaign); the packet
# and scheduler hot-path benches run many so pool warmup amortises to a
# true 0 allocs/op steady state.
CAMPAIGN_FILTER='BenchmarkCampaignWorkers/workers=4$|BenchmarkShardBuild$|BenchmarkCampaignTelemetry$'
HOTPATH_FILTER='BenchmarkCEMarkThroughput|BenchmarkBuildUDPBuf$|BenchmarkForwardingPath$|BenchmarkSimSchedule|BenchmarkSimScheduleSparse|BenchmarkTelemetryHotPath$'

root="$(git rev-parse --show-toplevel)"
cd "$root"
work="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$work/base" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT

run_bench() (
    cd "$1"
    # Small world, few traces: the gate measures per-packet cost, not scale.
    REPRO_SCALE=small REPRO_TRACES=2 go test -run='^$' -bench="$CAMPAIGN_FILTER" \
        -benchmem -benchtime=2x -count="$COUNT" ./internal/campaign/
    go test -run='^$' -bench="$HOTPATH_FILTER" \
        -benchmem -benchtime=20000x -count="$COUNT" ./internal/aqm/ ./internal/packet/ ./internal/netsim/ ./internal/telemetry/
)

echo "perf-gate: benchmarking working tree (count=$COUNT)..."
run_bench "$root" | tee "$work/head.txt"

echo "perf-gate: benchmarking base ($BASE_REF)..."
git worktree add --quiet --detach "$work/base" "$BASE_REF"
run_bench "$work/base" > "$work/base.txt" || {
    echo "perf-gate: base benchmarks failed (new benchmarks on an old base are fine); continuing with what ran"
}

if command -v benchstat >/dev/null 2>&1; then
    echo "perf-gate: benchstat comparison (base vs head):"
    benchstat "$work/base.txt" "$work/head.txt" || true
else
    echo "perf-gate: benchstat not installed — skipping the pretty report" \
         "(go install golang.org/x/perf/cmd/benchstat@latest)"
fi

fail=0

# Gate 1: zero allocs/op on the pooled packet-path, forwarding,
# scheduler and telemetry-write-path benchmarks.
bad_allocs="$(awk '/^Benchmark(CEMarkThroughput|BuildUDPBuf|ForwardingPath|SimSchedule|TelemetryHotPath)/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op" && $i+0 > 0) print $1, $i, "allocs/op"
}' "$work/head.txt" | sort -u)"
if [ -n "$bad_allocs" ]; then
    echo "perf-gate: FAIL — pooled packet-path, forwarding, scheduler and telemetry benchmarks must report 0 allocs/op:"
    echo "$bad_allocs"
    fail=1
fi

# Gate 2: campaign-level allocations. The pooled probe and trace state
# machines keep a small campaign around ~250k allocs/op; the ceiling
# catches a reintroduced closure-per-probe (or per-phantom) pattern
# long before it shows up as wall-clock.
bad_campaign_allocs="$(awk -v max="$MAX_CAMPAIGN_ALLOCS" '/^BenchmarkCampaignWorkers/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op" && $i+0 > max) print $1, $i, "allocs/op >", max
}' "$work/head.txt" | sort -u)"
if [ -n "$bad_campaign_allocs" ]; then
    echo "perf-gate: FAIL — campaign allocations exceed PERF_GATE_MAX_CAMPAIGN_ALLOCS=$MAX_CAMPAIGN_ALLOCS:"
    echo "$bad_campaign_allocs"
    fail=1
fi

# Gate 3: instrumentation overhead. BenchmarkCampaignTelemetry reports
# the paired plain-vs-instrumented difference itself (order-alternated
# within one process), so the gate takes the median of its `overhead-%`
# metric across the count repetitions — median, not mean, so one noisy
# repetition on a small machine cannot tip the verdict.
telemetry_overhead="$(awk -v maxpct="$MAX_TELEMETRY_PCT" '
    /^BenchmarkCampaignTelemetry/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "overhead-%") v[++cnt] = $i
    }
    END {
        if (cnt == 0) { print "BenchmarkCampaignTelemetry overhead-% rows missing"; exit 1 }
        for (a = 1; a <= cnt; a++)
            for (b = a + 1; b <= cnt; b++)
                if (v[b] + 0 < v[a] + 0) { t = v[a]; v[a] = v[b]; v[b] = t }
        med = (cnt % 2) ? v[(cnt + 1) / 2] : (v[cnt / 2] + v[cnt / 2 + 1]) / 2
        printf "BenchmarkCampaignTelemetry paired overhead median=%+.1f%% (%d runs)\n", med, cnt
        if (med > maxpct) exit 1
    }
' "$work/head.txt")" || {
    echo "perf-gate: FAIL — telemetry overhead exceeds PERF_GATE_MAX_TELEMETRY_PCT=${MAX_TELEMETRY_PCT}%:"
    echo "$telemetry_overhead"
    fail=1
}
[ $fail -eq 1 ] || echo "$telemetry_overhead"

# Gate 4: wall-clock regression vs base, on mean ns/op, for the campaign
# and the per-shard world setup. A benchmark absent on base (or whose
# base meaning differs — BenchmarkShardBuild predates shared worlds)
# can only pass or improve; the comparison keeps it from regressing
# again afterwards.
regressions="$(awk -v maxpct="$MAX_PCT" '
    function basename(n) { sub(/-[0-9]+$/, "", n); return n }
    FNR == 1 { file++ }
    /^Benchmark(CampaignWorkers|ShardBuild)/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") {
            n = basename($1)
            if (file == 1) { hsum[n] += $i; hcnt[n]++ } else { bsum[n] += $i; bcnt[n]++ }
        }
    }
    END {
        for (n in hsum) {
            if (!(n in bsum)) continue  # benchmark absent on base: nothing to gate
            head = hsum[n] / hcnt[n]; base = bsum[n] / bcnt[n]
            pct = (head - base) * 100 / base
            printf "%s base=%.0fns/op head=%.0fns/op delta=%+.1f%%\n", n, base, head, pct
            if (pct > maxpct) bad = 1
        }
        exit bad
    }
' "$work/head.txt" "$work/base.txt")" || {
    echo "perf-gate: FAIL — wall-clock regressed more than ${MAX_PCT}%:"
    echo "$regressions"
    fail=1
}
[ $fail -eq 1 ] || echo "$regressions"

if [ $fail -ne 0 ]; then
    exit 1
fi
echo "perf-gate: OK"
