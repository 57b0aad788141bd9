#!/usr/bin/env sh
# Tier-1 verification gate: release build + clippy (deny warnings) + full
# test suite + fault-tolerance drill.
#
#   scripts/verify.sh             # build + clippy + tests + fault drill
#                                 #   + horizon, serve and hybrid gates
#                                 #   + observe gate
#   scripts/verify.sh --quick     # ... + fig09 smoke run with throughput
#   scripts/verify.sh --bench     # ... + hot-path micro-benchmarks and the
#                                 #       throughput comparison table
#   scripts/verify.sh --faults    # fault drill only (assumes a release build)
#   scripts/verify.sh --horizon   # horizon gate only: fig09 --quick stdout
#                                 #   must be byte-identical with cycle
#                                 #   skipping on (default) and off
#                                 #   (PPF_NO_SKIP=1)
#   scripts/verify.sh --serve     # serve gate only: chaos drill (fault
#                                 #   injection + 10x spike + warm restart)
#                                 #   and the socket round trip
#   scripts/verify.sh --observe   # observe gate only: default build must
#                                 #   ignore PPF_OBSERVE byte-for-byte;
#                                 #   observe build must export valid
#                                 #   JSONL, hold the <5% profiling
#                                 #   overhead budget, cover >=90% of wall
#                                 #   time, and pass its feature-on tests
#   scripts/verify.sh --hybrid    # hybrid gate only: fig09 --quick stdout
#                                 #   must be byte-identical with the PPF
#                                 #   scheme routed through a single-member
#                                 #   Hybrid (PPF_WRAP_HYBRID=1), and the
#                                 #   fig_hybrid fusion ablation must run
#                                 #   clean with per-source attribution
set -eu

cd "$(dirname "$0")/.."

mode="${1:-}"

case "$mode" in
    ""|--quick|--bench|--faults|--horizon|--serve|--observe|--hybrid) ;;
    *)
        echo "usage: $0 [--quick|--bench|--faults|--horizon|--serve|--observe|--hybrid]" >&2
        exit 2
        ;;
esac

# Fault drill: targeted fault-injection tests, then a real sweep binary with
# one job deliberately panicked via PPF_FAULT_INJECT. The sweep must still
# exit 0, report the injected failure on stderr, and produce its table.
run_fault_drill() {
    echo "== fault-injection tests =="
    cargo test -q -p ppf-bench --test fault_tolerance
    cargo test -q -p ppf-trace --test fault_injection

    echo "== injected-panic sweep drill (fig09 --quick) =="
    drill_dir="$(mktemp -d)"
    drill_err="$drill_dir/stderr"
    PPF_FAULT_INJECT="panic:SPP" PPF_CHECKPOINT_DIR="$drill_dir" \
        ./target/release/fig09_single_core --quick >/dev/null 2>"$drill_err" \
        || { echo "fault drill: sweep aborted instead of isolating the panic"; \
             cat "$drill_err"; rm -rf "$drill_dir"; exit 1; }
    grep -q "FAILED" "$drill_err" \
        || { echo "fault drill: injected failure was not reported"; \
             cat "$drill_err"; rm -rf "$drill_dir"; exit 1; }
    rm -rf "$drill_dir"
    echo "fault drill: OK (sweep completed, failure reported by label)"
}

# Horizon gate: the event-horizon run loop must be observationally exact.
# Runs the fig09 sweep twice — cycle skipping on (the default) and off
# (PPF_NO_SKIP=1) — and byte-compares the stdout tables, then re-runs the
# golden layout digests with skipping disabled so both loop shapes are
# pinned to the same blessed results.
run_horizon_gate() {
    echo "== horizon gate: fig09 --quick, skip vs PPF_NO_SKIP=1 =="
    hz_dir="$(mktemp -d)"
    hz_bin="$(pwd)/target/release/fig09_single_core"
    # Run from the temp dir so the gate's throughput records land there
    # (and are deleted) instead of polluting results/bench_throughput.json
    # with A/B artifacts.
    ( cd "$hz_dir" && PPF_CHECKPOINT_DIR="$hz_dir/skip" \
        "$hz_bin" --quick > "$hz_dir/skip.out" 2>/dev/null ) \
        || { echo "horizon gate: fig09 (skip mode) failed"; rm -rf "$hz_dir"; exit 1; }
    ( cd "$hz_dir" && PPF_NO_SKIP=1 PPF_CHECKPOINT_DIR="$hz_dir/naive" \
        "$hz_bin" --quick > "$hz_dir/naive.out" 2>/dev/null ) \
        || { echo "horizon gate: fig09 (naive mode) failed"; rm -rf "$hz_dir"; exit 1; }
    cmp -s "$hz_dir/skip.out" "$hz_dir/naive.out" \
        || { echo "horizon gate: stdout differs between skip and naive modes"; \
             diff "$hz_dir/naive.out" "$hz_dir/skip.out" | head -20; \
             rm -rf "$hz_dir"; exit 1; }
    rm -rf "$hz_dir"
    echo "== horizon gate: golden layout digests with PPF_NO_SKIP=1 =="
    PPF_NO_SKIP=1 cargo test -q -p ppf-bench --test layout_golden
    echo "horizon gate: OK (both loop shapes byte-identical)"
}

# Serve gate: the filter-fleet daemon survives its chaos drill. The drill
# (ppf_loadgen --drill) injects a tenant panic, checkpoint bit-flips on one
# tenant, a hung shard, and a 10x load spike, then warm-restarts from the
# checkpoints it wrote. The binary itself enforces the acceptance bar (zero
# stalled callers, warm start clean) and exits nonzero otherwise; the gate
# additionally proves the unix-socket front end round-trips and shuts down.
run_serve_gate() {
    echo "== serve gate: chaos drill (tenant panic + bitflip + hung shard + 10x spike) =="
    serve_dir="$(mktemp -d)"
    PPF_FAULT_INJECT='tenant-panic:t001@4,checkpoint-bitflip:t002,slow-shard:1:1500,load-spike:10' \
        ./target/release/ppf_loadgen --drill --checkpoint-dir "$serve_dir/drill" \
        > "$serve_dir/drill.out" 2>/dev/null \
        || { echo "serve gate: chaos drill failed"; cat "$serve_dir/drill.out"; \
             rm -rf "$serve_dir"; exit 1; }
    grep "^drill:" "$serve_dir/drill.out"
    grep -q "tenant restarts 0" "$serve_dir/drill.out" \
        && { echo "serve gate: injected panic produced no restart"; \
             rm -rf "$serve_dir"; exit 1; }

    echo "== serve gate: socket round trip =="
    ./target/release/ppf_serve --listen "$serve_dir/ppf.sock" \
        --checkpoint-dir "$serve_dir/sock-ckpt" > "$serve_dir/serve.out" 2>&1 &
    serve_pid=$!
    tries=0
    while [ ! -S "$serve_dir/ppf.sock" ]; do
        tries=$((tries + 1))
        [ "$tries" -gt 100 ] \
            && { echo "serve gate: daemon never bound its socket"; \
                 cat "$serve_dir/serve.out"; rm -rf "$serve_dir"; exit 1; }
        sleep 0.1
    done
    ./target/release/ppf_loadgen --connect "$serve_dir/ppf.sock" --requests 200 --tenants 4 \
        || { echo "serve gate: socket load run failed"; kill "$serve_pid" 2>/dev/null; \
             rm -rf "$serve_dir"; exit 1; }
    ./target/release/ppf_loadgen --shutdown "$serve_dir/ppf.sock" \
        || { echo "serve gate: daemon shutdown failed"; kill "$serve_pid" 2>/dev/null; \
             rm -rf "$serve_dir"; exit 1; }
    wait "$serve_pid" \
        || { echo "serve gate: daemon exited nonzero"; cat "$serve_dir/serve.out"; \
             rm -rf "$serve_dir"; exit 1; }
    grep -q "^warm-start:" "$serve_dir/serve.out" \
        || { echo "serve gate: no warm-start banner"; cat "$serve_dir/serve.out"; \
             rm -rf "$serve_dir"; exit 1; }
    rm -rf "$serve_dir"
    echo "serve gate: OK (drill passed, socket round trip clean)"
}

# Observe gate: the observability layer must be invisible when compiled
# out and valid when live. (1) The default build's fig09 stdout is
# byte-identical with and without PPF_OBSERVE=intervals,spans: the runtime
# switch without the feature must change nothing. (2) The observe build's
# fig09 run with PPF_OBSERVE=intervals exports interval JSONL for every
# cell, and every file validates through `fig_telemetry --validate`. (3)
# fig_profile (observe build) enforces the <5% overhead budget and >=90%
# span coverage, and its span export validates too. (4) The feature-on
# test suites of ppf-sim, ppf, ppf-serve and the ppf-bench library pass.
# Runs last: step 2 rebuilds ppf-bench with the observe feature, so every
# default-build gate must already have run its binaries.
run_observe_gate() {
    echo "== observe gate: default build ignores PPF_OBSERVE =="
    obs_dir="$(mktemp -d)"
    obs_bin="$(pwd)/target/release/fig09_single_core"
    ( cd "$obs_dir" && PPF_CHECKPOINT_DIR="$obs_dir/off" \
        "$obs_bin" --quick > "$obs_dir/off.out" 2>/dev/null ) \
        || { echo "observe gate: fig09 (observe off) failed"; rm -rf "$obs_dir"; exit 1; }
    ( cd "$obs_dir" && PPF_OBSERVE=intervals,spans PPF_CHECKPOINT_DIR="$obs_dir/on" \
        "$obs_bin" --quick > "$obs_dir/on.out" 2>/dev/null ) \
        || { echo "observe gate: fig09 (PPF_OBSERVE set) failed"; rm -rf "$obs_dir"; exit 1; }
    cmp -s "$obs_dir/off.out" "$obs_dir/on.out" \
        || { echo "observe gate: PPF_OBSERVE changed a default build's stdout"; \
             diff "$obs_dir/off.out" "$obs_dir/on.out" | head -20; \
             rm -rf "$obs_dir"; exit 1; }

    echo "== observe gate: fig09 --quick exports (PPF_OBSERVE=intervals) =="
    cargo build --release -q -p ppf-bench --features observe
    ( cd "$obs_dir" && PPF_OBSERVE=intervals PPF_OBSERVE_DIR="$obs_dir/exports" \
        PPF_CHECKPOINT_DIR="$obs_dir/observed" "$obs_bin" --quick > /dev/null ) \
        || { echo "observe gate: observe-build fig09 failed"; rm -rf "$obs_dir"; exit 1; }
    set -- "$obs_dir"/exports/*.jsonl
    [ -e "$1" ] \
        || { echo "observe gate: fig09 emitted no JSONL"; rm -rf "$obs_dir"; exit 1; }
    ./target/release/fig_telemetry --validate "$@" > /dev/null \
        || { echo "observe gate: fig09 export validation failed"; rm -rf "$obs_dir"; exit 1; }
    echo "observe gate: $# fig09 exports valid"

    echo "== observe gate: fig_profile --quick (overhead + coverage budgets) =="
    PPF_OBSERVE_DIR="$obs_dir/profile" PPF_CHECKPOINT_DIR="$obs_dir/fp" \
        ./target/release/fig_profile --quick > "$obs_dir/profile.out" \
        || { echo "observe gate: fig_profile failed its budgets"; \
             cat "$obs_dir/profile.out"; rm -rf "$obs_dir"; exit 1; }
    grep -E "^(wall:|span coverage:)" "$obs_dir/profile.out"
    set -- "$obs_dir"/profile/*.jsonl
    [ -e "$1" ] \
        || { echo "observe gate: fig_profile exported no JSONL"; rm -rf "$obs_dir"; exit 1; }
    ./target/release/fig_telemetry --validate "$@" \
        || { echo "observe gate: span export validation failed"; rm -rf "$obs_dir"; exit 1; }
    rm -rf "$obs_dir"

    echo "== observe gate: feature-on test suites =="
    cargo test -q -p ppf-sim --features observe
    cargo test -q -p ppf --features observe
    cargo test -q -p ppf-serve --features observe
    cargo test -q -p ppf-bench --features observe --lib
    echo "observe gate: OK (off byte-identical, exports valid, on within budget)"
}

# Hybrid gate: the hybrid combinator must be an identity for one member and
# a working fusion for two. (1) fig09 --quick runs twice — PPF filtering a
# bare SPP (default) and the same SPP routed through a single-member Hybrid
# (PPF_WRAP_HYBRID=1) — and the stdout tables must be byte-identical. (2)
# the fig_hybrid fusion ablation runs --quick and must report per-source
# attribution for both fused columns.
run_hybrid_gate() {
    echo "== hybrid gate: fig09 --quick, bare SPP vs single-member Hybrid =="
    hy_dir="$(mktemp -d)"
    hy_bin="$(pwd)/target/release/fig09_single_core"
    ( cd "$hy_dir" && PPF_CHECKPOINT_DIR="$hy_dir/bare" \
        "$hy_bin" --quick > "$hy_dir/bare.out" 2>/dev/null ) \
        || { echo "hybrid gate: fig09 (bare) failed"; rm -rf "$hy_dir"; exit 1; }
    ( cd "$hy_dir" && PPF_WRAP_HYBRID=1 PPF_CHECKPOINT_DIR="$hy_dir/wrapped" \
        "$hy_bin" --quick > "$hy_dir/wrapped.out" 2>/dev/null ) \
        || { echo "hybrid gate: fig09 (PPF_WRAP_HYBRID=1) failed"; rm -rf "$hy_dir"; exit 1; }
    cmp -s "$hy_dir/bare.out" "$hy_dir/wrapped.out" \
        || { echo "hybrid gate: single-member Hybrid is not an identity"; \
             diff "$hy_dir/bare.out" "$hy_dir/wrapped.out" | head -20; \
             rm -rf "$hy_dir"; exit 1; }

    echo "== hybrid gate: fig_hybrid --quick (fusion ablation) =="
    fh_bin="$(pwd)/target/release/fig_hybrid"
    ( cd "$hy_dir" && PPF_CHECKPOINT_DIR="$hy_dir/fusion" \
        "$fh_bin" --quick > "$hy_dir/fusion.out" 2>/dev/null ) \
        || { echo "hybrid gate: fig_hybrid failed"; cat "$hy_dir/fusion.out"; \
             rm -rf "$hy_dir"; exit 1; }
    grep -q "PPF(SPP+BOP) per-source attribution" "$hy_dir/fusion.out" \
        || { echo "hybrid gate: missing SPP+BOP attribution table"; \
             cat "$hy_dir/fusion.out"; rm -rf "$hy_dir"; exit 1; }
    grep -q "PPF(SPP+AMPM) per-source attribution" "$hy_dir/fusion.out" \
        || { echo "hybrid gate: missing SPP+AMPM attribution table"; \
             cat "$hy_dir/fusion.out"; rm -rf "$hy_dir"; exit 1; }
    rm -rf "$hy_dir"
    echo "hybrid gate: OK (single-member identity holds, fusion attributes per source)"
}

if [ "$mode" = "--hybrid" ]; then
    cargo build --release -q -p ppf-bench
    run_hybrid_gate
    echo "verify: OK"
    exit 0
fi

if [ "$mode" = "--observe" ]; then
    cargo build --release -q -p ppf-bench
    run_observe_gate
    echo "verify: OK"
    exit 0
fi

if [ "$mode" = "--serve" ]; then
    cargo build --release -q -p ppf-serve
    run_serve_gate
    echo "verify: OK"
    exit 0
fi

if [ "$mode" = "--horizon" ]; then
    cargo build --release -q -p ppf-bench
    run_horizon_gate
    echo "verify: OK"
    exit 0
fi

if [ "$mode" = "--faults" ]; then
    run_fault_drill
    echo "verify: OK"
    exit 0
fi

echo "== cargo build --release =="
cargo build --release

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test -q --workspace =="
cargo test -q --workspace

run_fault_drill

run_horizon_gate

run_serve_gate

run_hybrid_gate

if [ "$mode" = "--quick" ] || [ "$mode" = "--bench" ]; then
    echo "== fig09 smoke run (--quick) =="
    ./target/release/fig09_single_core --quick > /dev/null
    if [ -f results/bench_throughput.json ]; then
        echo "latest throughput record:"
        tail -2 results/bench_throughput.json | head -1
    fi
fi

if [ "$mode" = "--bench" ]; then
    echo "== hot-path micro-benchmarks =="
    cargo bench -p ppf-bench --bench hot_paths
    echo "== throughput comparison (last two records per experiment) =="
    ./scripts/bench_compare || true
fi

run_observe_gate

echo "verify: OK"
