#!/usr/bin/env sh
# Tier-1 verification gate: release build + clippy (deny warnings) + docs
# (deny rustdoc warnings, so a dead intra-doc link fails) + full test suite
# + fault-tolerance drill.
#
#   scripts/verify.sh             # build + clippy + docs + tests + fault drill
#                                 #   + horizon gate, layering check,
#                                 #   ledger check, serve and hybrid
#                                 #   gates + observe gate
#   scripts/verify.sh --quick     # ... + fig09 smoke run
#   scripts/verify.sh --bench     # ... + hot-path micro-benchmarks (filter
#                                 #       scoring, SPP lookahead, PPF trigger,
#                                 #       cache probe, tick, trace build) and a ledger
#                                 #       record/compare round trip
#   scripts/verify.sh --faults    # fault drill only (assumes a release build)
#   scripts/verify.sh --horizon   # horizon gate only: fig09 --quick stdout
#                                 #   must be byte-identical with cycle
#                                 #   skipping on (default) and off
#                                 #   (PPF_NO_SKIP=1)
#   scripts/verify.sh --serve     # serve gate only: layering check
#                                 #   (ppf-serve must not depend on
#                                 #   ppf-bench or ppf-analysis), chaos
#                                 #   drill (fault injection + 10x spike +
#                                 #   warm restart) and the socket round trip
#   scripts/verify.sh --observe   # observe gate only: default build must
#                                 #   ignore PPF_OBSERVE byte-for-byte;
#                                 #   observe build must export valid
#                                 #   JSONL, hold the <5% profiling
#                                 #   overhead budget, cover >=90% of wall
#                                 #   time, and pass its feature-on tests
#   scripts/verify.sh --hybrid    # hybrid gate only: the fig_hybrid
#                                 #   fusion ablation must run clean with
#                                 #   per-source attribution (the
#                                 #   single-member identity is the tier-1
#                                 #   test ppf-bench/tests/hybrid_identity)
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
    echo "== decoder mutation tests (JSON decoder, socket protocol, serve checkpoints) =="
    cargo test -q -p ppf-sim --lib json::
    cargo test -q -p ppf-serve --lib protocol::
    cargo test -q -p ppf-serve --lib checkpoint::

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
    PPF_CHECKPOINT_DIR="$hz_dir/skip" \
        ./target/release/fig09_single_core --quick > "$hz_dir/skip.out" 2>/dev/null \
        || { echo "horizon gate: fig09 (skip mode) failed"; rm -rf "$hz_dir"; exit 1; }
    PPF_NO_SKIP=1 PPF_CHECKPOINT_DIR="$hz_dir/naive" \
        ./target/release/fig09_single_core --quick > "$hz_dir/naive.out" 2>/dev/null \
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

# Layering check: the serving daemon builds from ppf, ppf-sim and
# ppf-trace only, never from the figure harness.
run_layering_check() {
    echo "== layering: ppf-serve's normal dependencies =="
    serve_tree="$(cargo tree -p ppf-serve -e normal --offline --locked)" \
        || { echo "layering: cargo tree failed"; exit 1; }
    if printf '%s\n' "$serve_tree" | grep -Eq 'ppf-(bench|analysis) '; then
        echo "layering: ppf-serve depends on the figure harness:"
        printf '%s\n' "$serve_tree"
        exit 1
    fi
    echo "layering: OK (ppf-serve does not depend on ppf-bench or ppf-analysis)"
}

# Ledger check: the committed performance ledger decodes whole. Compares
# two revisions that have records in results/bench_throughput.json (runs no
# benchmark); the header must count no malformed line.
run_ledger_check() {
    echo "== ledger: compare 9d73cec cc3f5fd over the committed log =="
    ledger_out="$(./scripts/ledger compare 9d73cec cc3f5fd)" \
        || { echo "ledger check: compare failed"; exit 1; }
    header="$(printf '%s\n' "$ledger_out" | head -n 1)"
    echo "$header"
    case "$header" in
        *" 0 malformed lines"*) echo "ledger check: OK (no malformed line)" ;;
        *) echo "ledger check: the committed ledger has malformed lines"; exit 1 ;;
    esac
}

# Serve gate: the filter-fleet daemon survives its chaos drill. The drill
# (ppf_loadgen --drill) injects a tenant panic, checkpoint bit-flips on one
# tenant, a hung shard, and a 10x load spike, then warm-restarts from the
# checkpoints it wrote. The binary itself enforces the acceptance bar (zero
# stalled callers, warm start clean) and exits nonzero otherwise; the gate
# additionally proves the unix-socket front end round-trips and shuts down,
# and that a hung shard behind the socket still answers every request
# degraded within the deadline plus the drill's 200-ms stall margin.
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

    echo "== serve gate: socket hung shard (50-ms deadline, shard 0 stalls 1.5 s) =="
    PPF_FAULT_INJECT='slow-shard:0:1500' ./target/release/ppf_serve \
        --listen "$serve_dir/hung.sock" --shards 1 --deadline-ms 50 \
        --checkpoint-dir "$serve_dir/hung-ckpt" > "$serve_dir/hung.out" 2>&1 &
    serve_pid=$!
    tries=0
    while [ ! -S "$serve_dir/hung.sock" ]; do
        tries=$((tries + 1))
        [ "$tries" -gt 100 ] \
            && { echo "serve gate: hung-shard daemon never bound its socket"; \
                 cat "$serve_dir/hung.out"; rm -rf "$serve_dir"; exit 1; }
        sleep 0.1
    done
    hung="$(./target/release/ppf_loadgen --connect "$serve_dir/hung.sock" --requests 50)" \
        || { echo "serve gate: hung-shard load run failed"; kill "$serve_pid" 2>/dev/null; \
             rm -rf "$serve_dir"; exit 1; }
    echo "$hung"
    ./target/release/ppf_loadgen --shutdown "$serve_dir/hung.sock" > /dev/null \
        || { echo "serve gate: hung-shard daemon shutdown failed"; \
             kill "$serve_pid" 2>/dev/null; rm -rf "$serve_dir"; exit 1; }
    wait "$serve_pid" \
        || { echo "serve gate: hung-shard daemon exited nonzero"; cat "$serve_dir/hung.out"; \
             rm -rf "$serve_dir"; exit 1; }
    hung_degraded="$(printf '%s\n' "$hung" | sed -n 's/.*degraded \([0-9]*\).*/\1/p')"
    hung_max="$(printf '%s\n' "$hung" | sed -n 's/.*max \([0-9]*\)us.*/\1/p')"
    [ "${hung_degraded:-0}" -ge 1 ] \
        || { echo "serve gate: the hung shard produced no degraded reply"; \
             rm -rf "$serve_dir"; exit 1; }
    [ -n "$hung_max" ] && [ "$hung_max" -lt 250000 ] \
        || { echo "serve gate: a reply took ${hung_max:-?}us, over the 50-ms deadline + 200 ms"; \
             rm -rf "$serve_dir"; exit 1; }
    rm -rf "$serve_dir"
    echo "serve gate: OK (drill passed, socket round trip clean, hung shard answered in time)"
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
    obs_bin=./target/release/fig09_single_core
    PPF_CHECKPOINT_DIR="$obs_dir/off" \
        "$obs_bin" --quick > "$obs_dir/off.out" 2>/dev/null \
        || { echo "observe gate: fig09 (observe off) failed"; rm -rf "$obs_dir"; exit 1; }
    PPF_OBSERVE=intervals,spans PPF_CHECKPOINT_DIR="$obs_dir/on" \
        "$obs_bin" --quick > "$obs_dir/on.out" 2>/dev/null \
        || { echo "observe gate: fig09 (PPF_OBSERVE set) failed"; rm -rf "$obs_dir"; exit 1; }
    cmp -s "$obs_dir/off.out" "$obs_dir/on.out" \
        || { echo "observe gate: PPF_OBSERVE changed a default build's stdout"; \
             diff "$obs_dir/off.out" "$obs_dir/on.out" | head -20; \
             rm -rf "$obs_dir"; exit 1; }

    echo "== observe gate: fig09 --quick exports (PPF_OBSERVE=intervals) =="
    cargo build --release -q -p ppf-bench --features observe
    PPF_OBSERVE=intervals PPF_OBSERVE_DIR="$obs_dir/exports" \
        PPF_CHECKPOINT_DIR="$obs_dir/observed" "$obs_bin" --quick > /dev/null \
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

# Hybrid gate: the fig_hybrid fusion ablation runs --quick and must report
# per-source attribution for both fused columns. (The single-member
# identity is checked in tier-1 by crates/bench/tests/hybrid_identity.rs.)
run_hybrid_gate() {
    hy_dir="$(mktemp -d)"
    echo "== hybrid gate: fig_hybrid --quick (fusion ablation) =="
    PPF_CHECKPOINT_DIR="$hy_dir/fusion" \
        ./target/release/fig_hybrid --quick > "$hy_dir/fusion.out" 2>/dev/null \
        || { echo "hybrid gate: fig_hybrid failed"; cat "$hy_dir/fusion.out"; \
             rm -rf "$hy_dir"; exit 1; }
    grep -q "PPF(SPP+BOP) per-source attribution" "$hy_dir/fusion.out" \
        || { echo "hybrid gate: missing SPP+BOP attribution table"; \
             cat "$hy_dir/fusion.out"; rm -rf "$hy_dir"; exit 1; }
    grep -q "PPF(SPP+AMPM) per-source attribution" "$hy_dir/fusion.out" \
        || { echo "hybrid gate: missing SPP+AMPM attribution table"; \
             cat "$hy_dir/fusion.out"; rm -rf "$hy_dir"; exit 1; }
    rm -rf "$hy_dir"
    echo "hybrid gate: OK (fusion attributes per source)"
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
    run_layering_check
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

echo "== cargo doc --no-deps --workspace (rustdoc warnings denied) =="
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace

echo "== cargo test -q --workspace =="
cargo test -q --workspace

run_fault_drill

run_horizon_gate

run_layering_check

run_ledger_check

run_serve_gate

run_hybrid_gate

if [ "$mode" = "--quick" ] || [ "$mode" = "--bench" ]; then
    echo "== fig09 smoke run (--quick) =="
    ./target/release/fig09_single_core --quick > /dev/null
fi

if [ "$mode" = "--bench" ]; then
    echo "== hot-path micro-benchmarks =="
    cargo bench -p ppf-bench --bench hot_paths
    echo "== ledger: two short fig09-1c records, then compare =="
    # A throwaway log, so the round trip leaves results/ untouched.
    ledger_dir="$(mktemp -d)"
    for _ in 1 2; do
        ./scripts/ledger --log "$ledger_dir/ledger.json" \
            record --workload fig09-1c --seconds 2 > /dev/null \
            || { echo "ledger: record failed"; rm -rf "$ledger_dir"; exit 1; }
    done
    rev="$(git rev-parse HEAD)"
    ./scripts/ledger --log "$ledger_dir/ledger.json" compare "$rev" "$rev" \
        || { echo "ledger: compare failed"; rm -rf "$ledger_dir"; exit 1; }
    rm -rf "$ledger_dir"
fi

run_observe_gate

echo "verify: OK"
