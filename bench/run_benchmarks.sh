#!/usr/bin/env bash
# Runs the hot-path benchmarks and merges their JSON output (plus computed
# batched-vs-baseline speedups and engine thread-scaling efficiency) into
# BENCH_hotpath.json at the repo root. Every benchmark runs three times;
# each series records the median of its repetitions (plus the min and max
# of its rate), and every floor is checked on medians.
#
# Usage: FDC_BENCH_BIN_DIR=build bench/run_benchmarks.sh [output.json]
# Also available as the CMake target `bench_hotpath`.
set -euo pipefail

bin_dir="${FDC_BENCH_BIN_DIR:-build}"
out="${1:-BENCH_hotpath.json}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

benchmarks=(fig_batch_monitor fig5_labeler fig_engine_scaling fig_matcher
            fig_principal_churn fig_server)

# Run metadata so the bench trajectory across PRs is attributable to a
# commit and a machine shape. Each field may be pre-set by the caller
# (e.g. CI passing its own checkout sha).
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
detect_sha() {
  local sha
  sha="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null)" || { echo unknown; return; }
  # Flag uncommitted state so results are never misattributed to a clean sha.
  if [[ -n "$(git -C "$repo_root" status --porcelain 2>/dev/null)" ]]; then
    sha="$sha-dirty"
  fi
  echo "$sha"
}
export FDC_BENCH_GIT_SHA="${FDC_BENCH_GIT_SHA:-$(detect_sha)}"
export FDC_BENCH_CORES="${FDC_BENCH_CORES:-$(nproc 2>/dev/null || echo unknown)}"
export FDC_BENCH_TIMESTAMP="${FDC_BENCH_TIMESTAMP:-$(date -u +%Y-%m-%dT%H:%M:%SZ)}"

# Build type and compiler of the binaries, read from their CMake cache.
cache_value() {
  sed -n "s/^$1:[A-Z]*=//p" "$bin_dir/CMakeCache.txt" 2>/dev/null | head -n1 || true
}
build_type="$(cache_value CMAKE_BUILD_TYPE)"
cxx="$(cache_value CMAKE_CXX_COMPILER)"
compiler="$("${cxx:-c++}" --version 2>/dev/null | head -n1 || true)"

# Fail up front with a clear message instead of dying mid-merge: every
# benchmark binary must exist and be executable before we run any of them.
missing=()
for name in "${benchmarks[@]}"; do
  [[ -x "$bin_dir/$name" ]] || missing+=("$name")
done
if ((${#missing[@]})); then
  echo "error: missing benchmark binaries in '$bin_dir': ${missing[*]}" >&2
  echo "hint: build them first, e.g." >&2
  echo "  cmake --build build --target ${missing[*]}" >&2
  echo "(or run via: cmake --build build --target bench_hotpath)" >&2
  exit 1
fi

run() {
  local name="$1"
  echo ">> $name" >&2
  "$bin_dir/$name" \
    --benchmark_out="$tmp/$name.json" \
    --benchmark_out_format=json \
    --benchmark_repetitions=3 \
    --benchmark_min_time=0.2 >&2
}

for name in "${benchmarks[@]}"; do
  run "$name"
done

python3 - "$tmp" "$out" "$build_type" "$compiler" <<'EOF'
import json, statistics, sys, os

tmp, out, build_type, compiler = sys.argv[1:5]
merged = {"benchmarks": {}, "speedups": {}}
merged["run_metadata"] = {
    "git_sha": os.environ.get("FDC_BENCH_GIT_SHA", "unknown"),
    "hardware_cores": os.environ.get("FDC_BENCH_CORES", "unknown"),
    "timestamp_utc": os.environ.get("FDC_BENCH_TIMESTAMP", "unknown"),
    "build_type": build_type or "unknown",
    "compiler": compiler or "unknown",
}

KEYS = ("real_time", "cpu_time", "items_per_second", "queries_per_second",
        "masks_per_second", "sec_per_1M_queries", "num_principals",
        "residual_records", "residual_bytes", "residual_bytes_after_swap",
        "evictions", "residual_hits", "decisions_per_second",
        "avg_coalesced_batch", "max_coalesced_batch", "reconnects",
        "injected_faults", "epoch_retires", "p50_us", "p99_us", "p999_us")
RATES = ("items_per_second", "queries_per_second", "masks_per_second",
         "decisions_per_second")

for name in ("fig_batch_monitor", "fig5_labeler", "fig_engine_scaling",
             "fig_matcher", "fig_principal_churn", "fig_server"):
    with open(os.path.join(tmp, name + ".json")) as f:
        data = json.load(f)
    # Machine context from the first binary; its executable path names
    # only that binary and the local build directory, so it is dropped.
    if "context" not in merged:
        merged["context"] = dict(data.get("context", {}))
        merged["context"].pop("executable", None)
    # One entry per series: the median of its repetitions (google-
    # benchmark's own mean/median/stddev aggregate rows are skipped).
    reps = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") == "iteration":
            reps.setdefault(bench["name"], []).append(bench)
    for series, rows in reps.items():
        entry = {"time_unit": rows[0].get("time_unit"),
                 "repetitions": len(rows)}
        for k in KEYS:
            values = sorted(r[k] for r in rows if k in r)
            if not values:
                continue
            entry[k] = statistics.median(values)
            if k in RATES:
                entry[k + "_min"] = values[0]
                entry[k + "_max"] = values[-1]
        merged["benchmarks"][series] = entry

def rate(name):
    b = merged["benchmarks"].get(name, {})
    return b.get("queries_per_second") or b.get("items_per_second")

# Batched monitor pipeline vs the seed per-query path.
for atoms in (3, 6, 9, 12, 15):
    base = rate(f"BatchMonitor/per_query_baseline/max_atoms/{atoms}")
    batched = rate(f"BatchMonitor/batched/max_atoms/{atoms}")
    if base and batched:
        merged["speedups"][f"batch_monitor_vs_baseline/max_atoms/{atoms}"] = \
            round(batched / base, 2)

# Packed labeler vs the §4.2 baseline (Figure 5 series).
for atoms in (3, 6, 9, 12, 15):
    base = rate(f"Fig5/baseline/max_atoms/{atoms}")
    packed = rate(f"Fig5/bitvectors_and_hashing/max_atoms/{atoms}")
    if base and packed:
        merged["speedups"][f"fig5_packed_vs_baseline/max_atoms/{atoms}"] = \
            round(packed / base, 2)

ratios = [v for k, v in merged["speedups"].items()
          if k.startswith("batch_monitor_vs_baseline")]
merged["min_batch_monitor_speedup"] = min(ratios) if ratios else None

# Compiled catalog matcher vs the seed per-view loop (cold masks, no
# memoization on either side). Acceptance floor: ≥ 3x at 64 catalog views.
def mask_rate(name):
    b = merged["benchmarks"].get(name, {})
    return b.get("masks_per_second") or b.get("items_per_second")

merged["fig_matcher"] = {}
for views in (8, 16, 32, 64, 128, 256):
    seed = mask_rate(f"Matcher/seed_per_view/views/{views}")
    compiled = mask_rate(f"Matcher/compiled/views/{views}")
    if seed:
        merged["fig_matcher"][f"seed_per_view/views/{views}"] = seed
    if compiled:
        merged["fig_matcher"][f"compiled/views/{views}"] = compiled
    if seed and compiled:
        merged["speedups"][f"matcher_compiled_vs_seed/views/{views}"] = \
            round(compiled / seed, 2)
merged["matcher_compiled_speedup_at_64_views"] = \
    merged["speedups"].get("matcher_compiled_vs_seed/views/64")

# Wide-mask sweep: 256-view catalog at 64/128 views per relation, full
# multi-word masks on both sides (no packed cap). Acceptance floor: the
# compiled wide kernel stays >= 3x the uncapped per-view loop at 64
# views/relation (recorded below next to the measured ratios).
merged["fig_matcher_wide"] = {}
for vpr in (64, 128):
    seed = mask_rate(f"MatcherWide/seed_per_view/vpr/{vpr}")
    compiled = mask_rate(f"MatcherWide/compiled/vpr/{vpr}")
    if seed:
        merged["fig_matcher_wide"][f"seed_per_view/vpr/{vpr}"] = seed
    if compiled:
        merged["fig_matcher_wide"][f"compiled/vpr/{vpr}"] = compiled
    if seed and compiled:
        merged["speedups"][f"matcher_wide_vs_seed/vpr/{vpr}"] = \
            round(compiled / seed, 2)
merged["matcher_wide_speedup_at_64_vpr"] = \
    merged["speedups"].get("matcher_wide_vs_seed/vpr/64")
merged["matcher_wide_speedup_at_128_vpr"] = \
    merged["speedups"].get("matcher_wide_vs_seed/vpr/128")
merged["matcher_wide_speedup_floor"] = 3.0

# Batched sweep: the batch-structured kernel vs the per-atom loop over the
# same per-relation contiguous pools. Acceptance floor: ≥ 1.5x over
# per-atom at some batch size ≥ 64.
merged["fig_matcher_batch"] = {}
for vpr in (64, 128):
    per_batch = {}
    for batch in (1, 8, 64, 512):
        suffix = f"vpr:{vpr}/batch:{batch}"
        per_atom = mask_rate(f"MatcherBatch/per_atom/{suffix}")
        scalar = mask_rate(f"MatcherBatch/scalar/{suffix}")
        for series, r in (("per_atom", per_atom), ("scalar", scalar)):
            if r:
                merged["fig_matcher_batch"][
                    f"{series}/vpr/{vpr}/batch/{batch}"] = r
        if per_atom and scalar:
            merged["speedups"][
                f"matcher_batch_vs_per_atom/vpr/{vpr}/batch/{batch}"] = \
                round(scalar / per_atom, 2)
            if batch >= 64:
                per_batch[batch] = scalar / per_atom
    merged[f"matcher_batch_speedup_at_{vpr}_vpr"] = \
        round(max(per_batch.values()), 2) if per_batch else None
merged["matcher_batch_speedup_floor"] = 1.5

# Principal churn: steady-state footprint over a principal population 5x
# the bounded engine's live capacity (4096). The bench binary itself
# hard-fails when the bound is violated; the merged metrics record the
# measured footprint next to the unbounded baseline's.
merged["principal_churn"] = {"capacity": 4096, "churn_factor": 5}
for series in ("bounded", "unbounded"):
    # Fixed-iteration benchmarks report as "PrincipalChurn/<series>/
    # iterations:N" — match by prefix.
    prefix = f"PrincipalChurn/{series}"
    b = next((bench for name, bench in merged["benchmarks"].items()
              if name == prefix or name.startswith(prefix + "/")), {})
    for k in ("num_principals", "residual_records", "residual_bytes",
              "residual_bytes_after_swap", "evictions", "residual_hits"):
        if k in b:
            merged["principal_churn"][f"{series}/{k}"] = b[k]
    r = b.get("queries_per_second") or b.get("items_per_second")
    if r:
        merged["principal_churn"][f"{series}/queries_per_second"] = r
bounded_live = merged["principal_churn"].get("bounded/num_principals")
merged["principal_churn"]["bounded_within_capacity"] = \
    bounded_live is not None and bounded_live <= 4096

# Socket serving front end: closed-loop loopback decisions/s per pipelined
# connection count, the sockets-free SubmitCoalesced reference, and the
# unloaded call/response tail latencies. Acceptance floor: >= 1M coalesced
# decisions/s over loopback on one worker.
def server_counter(name, key):
    return merged["benchmarks"].get(name, {}).get(key)

merged["fig_server"] = {"decisions_per_second_floor": 1_000_000}
for conns in (1, 16):
    r = server_counter(f"ServerLoad/engine_only/conns/{conns}",
                       "decisions_per_second")
    if r:
        merged["fig_server"][f"engine_only/conns/{conns}"] = r
for conns in (1, 4, 16):
    row = f"ServerLoad/pipelined/conns/{conns}/real_time"
    r = server_counter(row, "decisions_per_second")
    if r:
        merged["fig_server"][f"pipelined/conns/{conns}"] = r
        avg = server_counter(row, "avg_coalesced_batch")
        if avg:
            merged["fig_server"][f"pipelined/conns/{conns}/avg_batch"] =                 round(avg, 1)
for k in ("p50_us", "p99_us", "p999_us"):
    v = server_counter("ServerLoad/latency/real_time", k)
    if v is not None:
        merged["fig_server"][f"latency/{k}"] = round(v, 2)
# Degraded mode: the same burst shape with ~1% benign + ~0.2% lethal
# faults injected into the server's recv/send path and reconnecting
# clients. Floor: answered throughput stays >= 0.5x the clean series at
# the same connection count.
merged["fig_server"]["degraded_ratio_floor"] = 0.5
deg_row = "ServerLoad/degraded/conns/4/real_time"
deg = server_counter(deg_row, "decisions_per_second")
clean4 = merged["fig_server"].get("pipelined/conns/4")
if deg:
    merged["fig_server"]["degraded/conns/4"] = deg
    for k in ("reconnects", "injected_faults"):
        v = server_counter(deg_row, k)
        if v is not None:
            merged["fig_server"][f"degraded/{k}"] = int(v)
if deg and clean4:
    ratio = round(deg / clean4, 3)
    merged["fig_server"]["degraded_ratio"] = ratio
    merged["fig_server"]["degraded_meets_floor"] = ratio >= 0.5

pipelined_rates = [v for k, v in merged["fig_server"].items()
                   if k.startswith("pipelined/") and not k.endswith("avg_batch")]
merged["fig_server"]["pipelined_min_decisions_per_second"] =     round(min(pipelined_rates), 1) if pipelined_rates else None
merged["fig_server"]["meets_floor"] =     bool(pipelined_rates) and min(pipelined_rates) >= 1_000_000

# Engine thread-scaling: aggregate throughput and parallel efficiency
# rate(N) / (N * rate(1)) per series. Multi-threaded google-benchmark rows
# are suffixed "/threads:N" except N=1 with UseRealTime ("/real_time").
def engine_rate(series, n):
    for name in (f"EngineScaling/{series}/threads/real_time/threads:{n}",
                 f"EngineScaling/{series}/threads/threads:{n}",
                 f"EngineScaling/{series}/threads/real_time"):
        r = rate(name)
        if r and (f"threads:{n}" in name or n == 1):
            return r
    return None

merged["engine_scaling"] = {}
merged["engine_scaling_efficiency"] = {}
for series in ("submit_batch", "submit"):
    one = engine_rate(series, 1)
    if not one:
        continue
    for n in (1, 2, 4, 8):
        r = engine_rate(series, n)
        if not r:
            continue
        merged["engine_scaling"][f"{series}/threads/{n}"] = r
        merged["engine_scaling_efficiency"][f"{series}/threads/{n}"] = \
            round(r / (n * one), 3)
        merged["speedups"][f"engine_scaling/{series}/threads/{n}"] = \
            round(r / one, 2)

# Overlay-warm throughput: per-query Submit served from the overlay's
# lock-free probe instead of the frozen tier. No floor; the
# series is the baseline for the label-tier work.
merged["engine_overlay_warm"] = {}
for n in (1, 2, 4, 8):
    r = rate(f"EngineReclaim/ebr/threads/real_time/threads:{n}")
    if r:
        merged["engine_overlay_warm"][f"threads/{n}"] = r

# Every recorded floor, checked on the medians above.
def floor_row(value, floor):
    return {"value": value, "floor": floor,
            "holds": value is not None and value >= floor}

merged["floors"] = {
    "min_batch_monitor_speedup":
        floor_row(merged["min_batch_monitor_speedup"], 5.0),
    "matcher_compiled_speedup_at_64_views":
        floor_row(merged["matcher_compiled_speedup_at_64_views"], 3.0),
    "matcher_wide_speedup_at_64_vpr":
        floor_row(merged["matcher_wide_speedup_at_64_vpr"], 3.0),
    "matcher_batch_speedup_at_64_vpr":
        floor_row(merged["matcher_batch_speedup_at_64_vpr"], 1.5),
    "server_pipelined_min_decisions_per_second":
        floor_row(merged["fig_server"]["pipelined_min_decisions_per_second"],
                  1_000_000),
    "server_degraded_ratio":
        floor_row(merged["fig_server"].get("degraded_ratio"), 0.5),
    "principal_churn_bounded_within_capacity":
        {"holds": merged["principal_churn"]["bounded_within_capacity"]},
}
failed = [k for k, v in merged["floors"].items() if not v["holds"]]

with open(out, "w") as f:
    json.dump(merged, f, indent=2, sort_keys=True)
    f.write("\n")
msg = f"wrote {out}; min batched speedup = {merged['min_batch_monitor_speedup']}"
eff4 = merged["engine_scaling_efficiency"].get("submit_batch/threads/4")
if eff4 is not None:
    msg += f"; engine 4-thread efficiency = {eff4}"
m64 = merged["matcher_compiled_speedup_at_64_views"]
if m64 is not None:
    msg += f"; compiled matcher @64 views = {m64}x"
w64 = merged["matcher_wide_speedup_at_64_vpr"]
if w64 is not None:
    msg += f"; wide matcher @64 views/relation = {w64}x"
b64 = merged["matcher_batch_speedup_at_64_vpr"]
if b64 is not None:
    msg += f"; batch kernel @64 views/relation = {b64}x"
churn_live = merged["principal_churn"].get("bounded/num_principals")
if churn_live is not None:
    msg += (f"; churn live principals = {int(churn_live)}/4096 "
            f"(5x churn)")
srv = merged["fig_server"].get("pipelined_min_decisions_per_second")
if srv is not None:
    p99 = merged["fig_server"].get("latency/p99_us")
    msg += (f"; server pipelined min = {srv/1e6:.2f}M dec/s "
            f"(floor 1M, p99 = {p99} us)")
dr = merged["fig_server"].get("degraded_ratio")
if dr is not None:
    msg += f"; degraded/clean ratio = {dr} (floor 0.5)"
msg += "; floors: " + ("all hold" if not failed else
                       "FAILED " + ", ".join(failed))
print(msg)
EOF
