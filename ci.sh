#!/usr/bin/env bash
# Repository CI gate: build, test, lint. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

# --workspace covers every crate including ulp-exec; keep the engine in
# the -D warnings set explicitly so a membership change can't drop it.
cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p ulp-exec --all-targets -- -D warnings
cargo clippy -p ulp-ir --all-targets -- -D warnings

# Rustdoc: every intra-doc link in the first-party crates must resolve,
# so a link to a deleted or private item fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --lib \
    -p ulp-adc -p ulp-analog -p ulp-bench -p ulp-check -p ulp-cmos \
    -p ulp-device -p ulp-exec -p ulp-ir -p ulp-num -p ulp-pmu \
    -p ulp-spice -p ulp-stscl
echo "rustdoc (intra-doc links, warnings denied) OK"

# Golden figure outputs: every figure binary's stdout must match its
# checked-in results/<bin>.txt byte for byte. Tracing and lint
# overrides are cleared (the traced footer is not part of a golden);
# the outputs do not depend on ULP_JOBS.
golden_out=$(mktemp)
trap 'rm -f "$golden_out"' EXIT
goldens=0
for golden in results/*.txt; do
    bin=$(basename "$golden" .txt)
    env -u ULP_TRACE -u ULP_LINT cargo run --release -q -p ulp-bench --bin "$bin" > "$golden_out"
    cmp "$golden_out" "$golden"
    goldens=$((goldens + 1))
done
test "$goldens" -eq 18
echo "golden figure outputs ($goldens results/*.txt byte-identical) OK"

# Telemetry path: one bench binary under ULP_TRACE=summary must render
# the solver-metrics footer, and ULP_TRACE=events must produce valid
# (non-empty, one-object-per-line) JSONL — so the tracing layer can
# never silently rot.
footer=$(ULP_TRACE=summary cargo run --release -q -p ulp-bench --bin fig9a_fmax_vs_iss)
echo "$footer" | grep -q -- "-- solver metrics --"
echo "$footer" | grep -q "total solves"
ULP_TRACE=events cargo run --release -q -p ulp-bench --bin circuit_verification > /dev/null
test -s results/telemetry/circuit_verification.jsonl
head -1 results/telemetry/circuit_verification.jsonl | grep -q '^{"event":".*}$'
echo "telemetry footer + JSONL OK"

# Design lints: every shipped builder netlist must lint clean with
# warnings denied, and every SARIF export must parse (the binary's
# --check re-reads each file with the crate's own JSON reader).
cargo run --release -q -p ulp-bench --bin ulp_lint -- --deny-warnings --check
for f in results/lint/scl-buffer-100p.sarif results/lint/scl-buffer-1n.sarif \
         results/lint/scl-buffer-10n.sarif results/lint/replica-buffer-1n.sarif \
         results/lint/preamp-coupled-1n.sarif results/lint/preamp-decoupled-1n.sarif; do
    test -s "$f"
    grep -q '"version": "2.1.0"' "$f"
done
echo "design lints + SARIF exports OK"

# Sound certification: every builder netlist must certify
# proved-nonsingular with unproven denied, the merged SARIF must parse
# (--check) and carry the right version, the Prometheus counters must
# validate, and the whole export must be byte-deterministic: two runs,
# identical files.
cargo run --release -q -p ulp-bench --bin ulp_certify -- --deny-unproven --check
test -s results/lint/certify.sarif
grep -q '"version": "2.1.0"' results/lint/certify.sarif
test -s results/lint/certify.prom
grep -q '^ulp_certified_total ' results/lint/certify.prom
grep -q '^ulp_certify_unproven_total 0$' results/lint/certify.prom
cp results/lint/certify.sarif results/lint/certify.sarif.run1
cp results/lint/certify.prom results/lint/certify.prom.run1
cargo run --release -q -p ulp-bench --bin ulp_certify -- --deny-unproven --check > /dev/null
cmp results/lint/certify.sarif results/lint/certify.sarif.run1
cmp results/lint/certify.prom results/lint/certify.prom.run1
rm -f results/lint/certify.sarif.run1 results/lint/certify.prom.run1
echo "sound certification (proofs + SARIF/Prometheus byte stability) OK"

# Netlist IR: the declarative pipeline (parse → round-trip → flatten →
# lint → certify → solve → sweep) over every shipped .ulp example. No
# --deny-warnings here: the double-tail comparator's clocked switches
# honestly warn strong-inversion in the reset phase, and its
# cross-coupled latch is honestly unproven (info) — errors still fail.
# Both exports must be byte-deterministic: the SARIF across two runs,
# and the sweep cost ledgers across ULP_JOBS=1 vs 4.
ULP_JOBS=1 cargo run --release -q -p ulp-bench --bin ulp_ir -- \
    --check --ledger-out results/ir/ledger_j1.txt
for f in results/ir/scl_buffer.sarif results/ir/comp_doubletail.sarif; do
    test -s "$f"
    grep -q '"version": "2.1.0"' "$f"
done
cp results/ir/scl_buffer.sarif results/ir/scl_buffer.sarif.run1
cp results/ir/comp_doubletail.sarif results/ir/comp_doubletail.sarif.run1
ULP_JOBS=4 cargo run --release -q -p ulp-bench --bin ulp_ir -- \
    --check --ledger-out results/ir/ledger_j4.txt > /dev/null
cmp results/ir/scl_buffer.sarif results/ir/scl_buffer.sarif.run1
cmp results/ir/comp_doubletail.sarif results/ir/comp_doubletail.sarif.run1
cmp results/ir/ledger_j1.txt results/ir/ledger_j4.txt
rm -f results/ir/scl_buffer.sarif.run1 results/ir/comp_doubletail.sarif.run1
echo "netlist IR (pipeline + SARIF byte stability + ledger determinism ULP_JOBS=1 vs 4) OK"

# A set-but-invalid ULP_JOBS is a usage error: exit 2 with a message
# naming the variable, before any work runs — never a panic.
for bad in 0 abc; do
    code=0
    msg=$(ULP_JOBS=$bad cargo run --release -q -p ulp-bench --bin ulp_ir -- \
        examples/scl_buffer.ulp 2>&1 >/dev/null) || code=$?
    test "$code" -eq 2
    grep -q "ULP_JOBS=$bad is invalid" <<<"$msg"
done
# The figure binaries check it in the shared harness, before the body.
code=0
msg=$(ULP_JOBS=0 cargo run --release -q -p ulp-bench --bin fig11_inl_dnl 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
grep -q "ULP_JOBS=0 is invalid" <<<"$msg"
echo "ULP_JOBS validation (0 and abc exit 2 with the reason) OK"

# Bad command lines and bad input designs are reported, never panics:
# a non-numeric or zero --dies and an unknown ulp_obs flag are usage
# errors (exit 2); a missing or malformed .ulp file exits 1 naming the
# file (and, for a parse error, the line and column).
for bad in "--dies abc" "--dies 0" "--bogus"; do
    code=0
    cargo run --release -q -p ulp-bench --bin ulp_obs -- $bad >/dev/null 2>&1 || code=$?
    test "$code" -eq 2
done
bad_ulp=$(mktemp --suffix .ulp)
printf '.ends\n' > "$bad_ulp"
for design in results/ir/does-not-exist.ulp "$bad_ulp"; do
    code=0
    msg=$(cargo run --release -q -p ulp-bench --bin ulp_ir -- "$design" 2>&1 >/dev/null) || code=$?
    test "$code" -eq 1
    grep -qF "$design: " <<<"$msg"
done
grep -q "line 1, col 1" <<<"$msg"
rm -f "$bad_ulp"
echo "CLI and input errors (ulp_obs flags exit 2, bad .ulp files exit 1) OK"

# Campaign observability: the obs harness runs a 64-die yield campaign
# and a solver-backed dcop sweep under the span profiler, validates the
# Chrome trace JSON and the Prometheus exposition with the crate's own
# readers (--check), and exports the counter-only cost ledger. The
# ledger excludes worker identity and wall time by construction, so the
# serial and 4-worker runs must produce byte-identical files.
ULP_JOBS=1 cargo run --release -q -p ulp-bench --bin ulp_obs -- \
    --dies 64 --ledger-out results/obs/ledger_j1.json --check > /dev/null
ULP_JOBS=4 cargo run --release -q -p ulp-bench --bin ulp_obs -- \
    --dies 64 --ledger-out results/obs/ledger_j4.json --check > /dev/null
cmp results/obs/ledger_j1.json results/obs/ledger_j4.json
test -s results/obs/ulp_obs.trace.json
test -s results/obs/ulp_obs.prom
echo "campaign observability (trace + ledger determinism ULP_JOBS=1 vs 4) OK"

# Execution engine: the determinism suite must pass on one worker (the
# calling thread) and on four — same bytes, different schedule.
ULP_JOBS=1 cargo test -q -p integration --test exec_determinism
ULP_JOBS=4 cargo test -q -p integration --test exec_determinism
echo "exec determinism (ULP_JOBS=1 and 4) OK"

# Sparse solver bench: times dcop/sweep/transient on every builder
# netlist under both linear-algebra backends plus the adaptive-vs-fixed
# transient comparison, writes BENCH_solver.json and
# BENCH_tran_adaptive.json, and with --assert fails if the sparse path
# ever loses to the dense path on the pre-amplifier transient workload
# or the adaptive engine delivers less than 2x over the fixed march at
# equal accuracy there. The checked-in artifacts are kept aside first:
# BENCH_solver.json holds host-specific wall-clock timings and is put
# back on exit, so a green run leaves the tree clean.
pinned=$(mktemp -d)
cp BENCH_solver.json BENCH_tran_adaptive.json "$pinned"
trap 'rm -f "$golden_out"; cp "$pinned/BENCH_solver.json" BENCH_solver.json; rm -rf "$pinned"' EXIT
cargo run --release -q -p ulp-bench --bin solver_bench -- --assert
test -s BENCH_solver.json
grep -q '"preamp_tran_speedup"' BENCH_solver.json
grep -q '"preamp_adaptive_speedup"' BENCH_solver.json
# The adaptive artifact holds only deterministic fields (point counts,
# step/bypass counters, deviations — no wall clock), so the regenerated
# file must equal the checked-in one, and a second, timing-free run
# must reproduce it byte for byte.
cmp BENCH_tran_adaptive.json "$pinned/BENCH_tran_adaptive.json"
cargo run --release -q -p ulp-bench --bin solver_bench -- \
    --stability results/tran_adaptive.stability.json
cmp BENCH_tran_adaptive.json results/tran_adaptive.stability.json
rm -f results/tran_adaptive.stability.json
echo "solver bench (sparse vs dense + adaptive artifact pinned and byte-stable) OK"

# Scaling gate: on the layered benchmark's chain_op workload (a
# 3010-unknown scl_buf chain from text to DC operating point), flatten
# and the symbolic LU factorization must stay near-linear in circuit
# size. The benchmark is only run here; its traced run fits each
# log-log slope between a third of the chain and the full chain. The
# run must be correct with no failed job. The slopes are host timings,
# so a reading above the bar is retried, up to three attempts in all.
slope_reading() {
    local json flatten symbolic
    json=$(cargo run --release --offline -q --manifest-path layerbench/Cargo.toml -- \
        --workload chain_op --seed 1 --seconds 3 --trace 1 | tail -1)
    if ! echo "$json" | grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,'; then
        echo "FAIL: layerbench chain_op is not correct or failed jobs: ${json:0:200}"
        exit 1
    fi
    flatten=$(echo "$json" | grep -o '"ir.flatten.slope": {"value": [^,]*' | sed 's/.*: //')
    symbolic=$(echo "$json" | grep -o '"spice.mna.symbolic.slope": {"value": [^,]*' | sed 's/.*: //')
    echo "chain_op slopes: flatten n^$flatten, symbolic LU n^$symbolic (bar n^1.4)"
    awk -v f="$flatten" -v s="$symbolic" \
        'BEGIN { exit !(f != "" && s != "" && f <= 1.4 && s <= 1.4) }'
}
for attempt in 1 2 3; do
    if slope_reading; then
        break
    fi
    if [ "$attempt" -eq 3 ]; then
        echo "FAIL: chain_op slopes above n^1.4 in 3 attempts"
        exit 1
    fi
done
echo "layered benchmark scaling gate (flatten + symbolic LU <= n^1.4) OK"

# Scaling bench: always run it (it asserts serial == parallel results);
# only hold it to the >=2x speedup bar when the host actually has the
# cores to show one.
bench_out=$(cargo bench -q -p ulp-bench --bench exec_scaling)
echo "$bench_out"
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 4 ]; then
    echo "$bench_out" | awk '
        # Convert a Duration debug string ("56.272ms", "1.2s", "890.1µs")
        # to seconds.
        function secs(d) {
            mult = 1
            if (d ~ /ns$/)           { mult = 1e-9 }
            else if (d ~ /µs$/ || d ~ /us$/) { mult = 1e-6 }
            else if (d ~ /ms$/)      { mult = 1e-3 }
            gsub(/[^0-9.]/, "", d)
            return d * mult
        }
        /exec_scaling_serial_64_dies/    { serial = secs($4) }
        /exec_scaling_parallel4_64_dies/ { parallel = secs($4) }
        END {
            if (parallel == 0 || serial / parallel < 2.0) {
                printf "FAIL: parallel speedup %.2fx < 2x on a %d-core host\n", serial / parallel, '"$cores"'
                exit 1
            }
            printf "exec scaling OK: %.2fx speedup at 4 workers\n", serial / parallel
        }'
else
    # Too few cores for a wall-clock speedup bar — but a 1-core box can
    # still *prove* schedule-independence: drive the claim loop through the
    # ulp-check explorer, which interleaves virtual workers regardless
    # of physical parallelism.
    echo "exec scaling: $cores core(s) — speedup bar replaced by explorer determinism check"
    cargo run --release -q -p ulp-check --bin ulp_check -- \
        --workers 3 --trials 8 --bound 3 --walk 128 --seed 20260808
fi

# Concurrency model check: the bounded schedule explorer drives the
# shipped claim-loop/cancel code through every bound-2 schedule of a
# 2-worker/4-trial campaign (exhaustive), plus a deterministic
# 64-schedule random walk at bound 3, writing SARIF next to the design
# lints. The --fault runs assert the toolkit still *detects* seeded
# defects (non-atomic claim counter, completion-order fold, dropped
# cancel record). One past the --workers/--trials caps is a usage
# error (exit 2), rejected before any modelled thread starts.
for over in "--workers 9" "--trials 65"; do
    code=0
    cargo run --release -q -p ulp-check --bin ulp_check -- $over 2>/dev/null || code=$?
    test "$code" -eq 2
done
cargo run --release -q -p ulp-check --bin ulp_check -- \
    --workers 2 --trials 4 --bound 2 --sarif results/lint/concurrency.sarif
test -s results/lint/concurrency.sarif
grep -q '"version": "2.1.0"' results/lint/concurrency.sarif
cargo run --release -q -p ulp-check --bin ulp_check -- \
    --workers 3 --trials 6 --bound 3 --walk 64 --seed 20260808
cargo run --release -q -p ulp-check --bin ulp_check -- \
    --fault race --expect-findings > /dev/null
cargo run --release -q -p ulp-check --bin ulp_check -- \
    --fault fold --expect-findings > /dev/null
cargo run --release -q -p ulp-check --bin ulp_check -- \
    --fault cancel --bound 1 --expect-findings > /dev/null
echo "model check (exhaustive bound 2 + walk 64 @ bound 3 + fault detection + flag caps) OK"

# Opt-in deep checks: Miri (interpreter-level UB detection) and
# ThreadSanitizer need toolchain components this container may not
# ship; run them when available, say so when not.
if command -v rustup >/dev/null 2>&1 && rustup component list --installed 2>/dev/null | grep -q '^miri'; then
    cargo miri test -p ulp-exec -q
    echo "miri (ulp-exec) OK"
else
    echo "miri: toolchain component unavailable — skipped"
fi
if command -v rustup >/dev/null 2>&1 && rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -p ulp-exec -q 2>/dev/null \
        && echo "tsan (ulp-exec) OK" \
        || echo "tsan: nightly present but sanitizer build failed — skipped (non-fatal)"
else
    echo "tsan: nightly toolchain unavailable — skipped"
fi
