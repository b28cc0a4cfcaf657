#!/usr/bin/env bash
# Offline CI: tier-1 verification plus a parallel-driver smoke test.
#
# Everything here works without network or registry access — the
# workspace has no external dependencies on the tier-1 path.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cargo build --release

echo "== lint: clippy =="
cargo clippy --workspace -- -D warnings

echo "== tier-1: tests (every workspace crate, debug) =="
cargo test -q

echo "== workspace tests =="
cargo test --release --workspace -q

echo "== benchmark: perfbench tests and seed-0 digests =="
# perfbench checks every simulation it runs against the seed-0 digest
# table (perfbench/digests.txt), so a clean table2 and sweep run is the
# byte-identity guard for all 84 of their simulations.
cargo test --manifest-path perfbench/Cargo.toml
for workload in table2 sweep; do
    last="$(python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 5 --trace 0 | tail -n 1)"
    case "$last" in
        *'"correct": true,'*'"failed": 0,'*) echo "perfbench $workload OK" ;;
        *)
            echo "FAIL: perfbench $workload did not report correct with 0 failed: $last" >&2
            exit 1
            ;;
    esac
done

echo "== smoke: parallel experiment driver =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo build --release -p mcl-bench
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 --jobs 2 > table2_j2.txt)
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 --jobs 1 > table2_j1.txt)
if ! diff -q "$smoke_dir/table2_j1.txt" "$smoke_dir/table2_j2.txt"; then
    echo "FAIL: parallel and serial table2 output differ" >&2
    exit 1
fi
test -s "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: BENCH_repro.json was not written" >&2
    exit 1
}

echo "== guard: committed report schema matches the binary =="
# The committed BENCH_repro.json documents the report format; it must be
# regenerated whenever REPORT_SCHEMA_VERSION moves.
emitted_schema="$(grep -o '"schema_version":[0-9]*' "$smoke_dir/BENCH_repro.json" | head -1 | cut -d: -f2)"
committed_schema="$(grep -o '"schema_version":[0-9]*' BENCH_repro.json | head -1 | cut -d: -f2)"
if [ -z "$emitted_schema" ] || [ "$emitted_schema" != "$committed_schema" ]; then
    echo "FAIL: committed BENCH_repro.json is schema ${committed_schema:-?}, the binary emits ${emitted_schema:-?};" \
        "regenerate it with \`target/release/repro all\` at the repo root" >&2
    exit 1
fi
echo "schema OK: ${emitted_schema}"

echo "== smoke: invariant checker does not change results =="
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 4 > table2_plain.txt)
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 4 --check retire > table2_checked.txt)
if ! diff -q "$smoke_dir/table2_plain.txt" "$smoke_dir/table2_checked.txt"; then
    echo "FAIL: --check retire changed table2 output" >&2
    exit 1
fi

echo "== smoke: selftest (differential + fault injection) =="
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" selftest 8 --jobs 2)

echo "== smoke: fault-isolated driver =="
if (cd "$smoke_dir" && MCL_PANIC_CELL=1 "$OLDPWD/target/release/repro" table2 4 --keep-going \
        > keepgoing.txt 2> keepgoing.err); then
    echo "FAIL: run with an injected panic exited zero" >&2
    exit 1
fi
grep -q '"id":"panic-probe","status":"panicked"' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: panicked cell not recorded in BENCH_repro.json" >&2
    exit 1
}
grep -q 'compress' "$smoke_dir/keepgoing.txt" || {
    echo "FAIL: --keep-going did not render the surviving sections" >&2
    exit 1
}

echo "== smoke: observability exports =="
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 4 > table2_noobs.txt)
cp "$smoke_dir/BENCH_repro.json" "$smoke_dir/BENCH_noobs.json"
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 4 --obs obs_out > table2_obs.txt)
if ! diff -q "$smoke_dir/table2_noobs.txt" "$smoke_dir/table2_obs.txt"; then
    echo "FAIL: --obs changed table2 output" >&2
    exit 1
fi
target/release/repro obs-validate "$smoke_dir/obs_out"
cycles_noobs="$(grep -o '"total_simulated_cycles":[0-9]*' "$smoke_dir/BENCH_noobs.json")"
cycles_obs="$(grep -o '"total_simulated_cycles":[0-9]*' "$smoke_dir/BENCH_repro.json")"
if [ -z "$cycles_noobs" ] || [ "$cycles_noobs" != "$cycles_obs" ]; then
    echo "FAIL: --obs changed total_simulated_cycles ($cycles_noobs vs $cycles_obs)" >&2
    exit 1
fi

echo "== smoke: critical-path explain =="
# One cell with a baseline. The binary itself enforces that the
# instrumented companion run is byte-identical to the uninstrumented
# one (it exits nonzero on any divergence), so a zero exit here IS the
# perturbation check; obs-validate re-checks the attribution identity
# and schema from the exported JSON.
(cd "$smoke_dir" && MCL_ONLY=compress "$OLDPWD/target/release/repro" explain 8 --baseline single \
    --obs explain_out > explain.txt)
grep -q 'compress:' "$smoke_dir/explain.txt" || {
    echo "FAIL: explain report missing the compress cell" >&2
    exit 1
}
test -s "$smoke_dir/explain_out/compress.critpath.json" || {
    echo "FAIL: compress.critpath.json was not written" >&2
    exit 1
}
target/release/repro obs-validate "$smoke_dir/explain_out"
grep -q '"explain":{"dir":"explain_out","baseline":"single"}' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: explain run not recorded in BENCH_repro.json" >&2
    exit 1
}
# The exported target cycles and the rendered report must agree (both
# come from the same uninstrumented run the probe was checked against).
json_cycles="$(grep -o '"cycles":[0-9]*' "$smoke_dir/explain_out/compress.critpath.json" | head -1 | cut -d: -f2)"
grep -q "compress: ${json_cycles} cycles" "$smoke_dir/explain.txt" || {
    echo "FAIL: critpath.json cycles ($json_cycles) disagree with the rendered report" >&2
    exit 1
}

echo "== smoke: fast-forward is byte-identical to single-stepping =="
# Dead-cycle fast-forward must be a pure wall-clock optimization:
# `--check cycle` single-steps every simulation (the checker audits
# every cycle and only reads state), so the whole experiment suite
# must render byte-for-byte the same with and without it.
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" all 8 --jobs 2 > all_plain.txt)
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" all 8 --jobs 2 --check cycle > all_stepped.txt)
if ! diff -q "$smoke_dir/all_plain.txt" "$smoke_dir/all_stepped.txt"; then
    echo "FAIL: single-stepping (--check cycle) changed repro all output" >&2
    exit 1
fi

echo "== smoke: host flight recorder =="
# The recorder must be a pure observer: rendered output byte-identical
# with recording on, and the recording itself must pass obs-validate's
# flight contract (completed spans, categorized events, finite
# timestamps).
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" all 8 --jobs 2 \
    --flight run.flight.json > all_flight.txt 2> flight.err)
if ! diff -q "$smoke_dir/all_plain.txt" "$smoke_dir/all_flight.txt"; then
    echo "FAIL: --flight changed repro all output" >&2
    exit 1
fi
grep -q '"flight":{"file":"run.flight.json"}' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: flight recording not recorded in BENCH_repro.json" >&2
    exit 1
}
mkdir "$smoke_dir/flight_dir"
cp "$smoke_dir/run.flight.json" "$smoke_dir/flight_dir/"
target/release/repro obs-validate "$smoke_dir/flight_dir"

echo "== smoke: engine phase-cost profile =="
# The binary enforces the hostprof sum-to-elapsed identity and
# bit-identical statistics on every profiled cell (it exits nonzero on
# any violation); obs-validate re-checks the identity and schema from
# the exported JSON. The full 36-cell identity sweep runs inside
# `repro selftest` (hostprof-identity stage) above.
(cd "$smoke_dir" && MCL_ONLY=compress "$OLDPWD/target/release/repro" profile 8 \
    --obs hostprof_out > profile.txt)
grep -q 'compress:.*ns/live-cycle' "$smoke_dir/profile.txt" || {
    echo "FAIL: profile report missing the compress cell" >&2
    exit 1
}
test -s "$smoke_dir/hostprof_out/compress.hostprof.json" || {
    echo "FAIL: compress.hostprof.json was not written" >&2
    exit 1
}
target/release/repro obs-validate "$smoke_dir/hostprof_out"
grep -q '"profile":{"dir":"hostprof_out"}' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: profile run not recorded in BENCH_repro.json" >&2
    exit 1
}

echo "== smoke: per-instruction pipetrace =="
# One cell. The binary enforces that the instrumented companion run is
# byte-identical to the uninstrumented one (probe on/off identity — it
# exits nonzero on any divergence), and the retire-exactness identity
# on the recorded lifecycle; the full 36-cell identity sweep runs
# inside `repro selftest` (pipetrace-identity stage) above. Here CI
# additionally revalidates the exports with obs-validate and
# cross-checks the exported cycle and retirement counts against
# BENCH_repro.json and the rendered report.
(cd "$smoke_dir" && MCL_ONLY=compress "$OLDPWD/target/release/repro" pipetrace 8 \
    --out pipetrace_out > pipetrace.txt)
test -s "$smoke_dir/pipetrace_out/compress.konata" || {
    echo "FAIL: compress.konata was not written" >&2
    exit 1
}
target/release/repro obs-validate "$smoke_dir/pipetrace_out"
grep -q '"pipetrace":{"dir":"pipetrace_out","range":null,"baseline":null}' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: pipetrace run not recorded in BENCH_repro.json" >&2
    exit 1
}
# The exported target cycles must be the cycles the cell actually
# simulated, and the exported retirement count must match the rendered
# report — the retire-exactness identity, re-checked across artifacts.
pt_json="$smoke_dir/pipetrace_out/compress.pipetrace.json"
pt_cycles="$(grep -o '"cycles":[0-9]*' "$pt_json" | head -1 | cut -d: -f2)"
grep -q "\"simulated_cycles\":${pt_cycles}" "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: pipetrace.json cycles ($pt_cycles) disagree with BENCH_repro.json" >&2
    exit 1
}
pt_retired="$(grep -o '"retired":[0-9]*' "$pt_json" | head -1 | cut -d: -f2)"
grep -q "of ${pt_retired} retired" "$smoke_dir/pipetrace.txt" || {
    echo "FAIL: pipetrace.json retirements ($pt_retired) disagree with the rendered report" >&2
    exit 1
}
# Differential + ranged mode: slips vs the single-cluster baseline.
(cd "$smoke_dir" && MCL_ONLY=compress "$OLDPWD/target/release/repro" pipetrace 8 \
    --baseline single --range 100..200 --out pipetrace_diff > pipetrace_diff.txt)
grep -q '(range 100..200)' "$smoke_dir/pipetrace_diff.txt" || {
    echo "FAIL: pipetrace --range not reflected in the report" >&2
    exit 1
}
grep -q 'vs single (' "$smoke_dir/pipetrace_diff.txt" || {
    echo "FAIL: pipetrace --baseline missing from the report" >&2
    exit 1
}
target/release/repro obs-validate "$smoke_dir/pipetrace_diff"

echo "== smoke: chaos fault-injection campaign =="
# Every injected fault must surface as a structured error (invariant
# violation or wedge) — never silently perturb statistics. The campaign
# sweeps fault x workload x check level and the binary exits nonzero
# unless 100% of cells detect and 0% leak.
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" chaos --jobs 2 > chaos.txt)
grep -q 'chaos: PASS (100% detected, 0% leaked)' "$smoke_dir/chaos.txt" || {
    echo "FAIL: chaos campaign did not report a full pass" >&2
    cat "$smoke_dir/chaos.txt" >&2
    exit 1
}
grep -q ' 0 leaked into stats; 0 broken cells' "$smoke_dir/chaos.txt" || {
    echo "FAIL: chaos campaign summary line malformed or reporting leaks" >&2
    exit 1
}

echo "== smoke: persistent result store (cold vs warm) =="
# A warm `--store` run must render byte-identical output while serving
# every serial simulation from disk. The speedup guard compares the
# cells' simulate time (the cached work), not total wall — traces are
# rebuilt either way; override with MCL_STORE_GUARD_SPEEDUP.
store_speedup_floor="${MCL_STORE_GUARD_SPEEDUP:-5.0}"
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" all 8 --jobs 1 --store result_store > all_cold.txt)
cold_wall="$(grep -o '"total_simulate_seconds":[0-9.]*' "$smoke_dir/BENCH_repro.json" | head -1 | cut -d: -f2)"
grep -q '"disk_stores":0' "$smoke_dir/BENCH_repro.json" && {
    echo "FAIL: cold --store run persisted nothing" >&2
    exit 1
}
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" all 8 --jobs 1 --store result_store > all_warm.txt)
warm_wall="$(grep -o '"total_simulate_seconds":[0-9.]*' "$smoke_dir/BENCH_repro.json" | head -1 | cut -d: -f2)"
if ! diff -q "$smoke_dir/all_cold.txt" "$smoke_dir/all_warm.txt"; then
    echo "FAIL: warm --store run changed repro all output" >&2
    exit 1
fi
grep -q '"disk_misses":0' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: warm --store run missed the disk cache" >&2
    exit 1
}
grep -q '"disk_quarantined":0' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: warm --store run quarantined entries" >&2
    exit 1
}
if grep -q '"disk_hits":0' "$smoke_dir/BENCH_repro.json"; then
    echo "FAIL: warm --store run served no cells from disk" >&2
    exit 1
fi
if ! awk -v c="$cold_wall" -v w="$warm_wall" -v f="$store_speedup_floor" \
        'BEGIN { exit !(w <= 0.000001 || c / w >= f) }'; then
    echo "FAIL: warm --store simulate time (${warm_wall}s) not ${store_speedup_floor}x under cold (${cold_wall}s)" >&2
    exit 1
fi
echo "store guard OK: simulate ${cold_wall}s cold vs ${warm_wall}s warm (floor ${store_speedup_floor}x), output byte-identical"

echo "== guard: disabled-probe overhead =="
# Compare min-of-3 serial `repro all` wall time against the previous
# commit. This also bounds the disabled cost of the hostprof phase
# profiler and the flight recorder (neither flag is passed here, so
# their hooks must compile to nothing / one relaxed load). Wall-clock
# comparisons on shared CI hosts are noisy, so the guard uses the min
# of three runs and a generous default tolerance (override with
# MCL_OBS_GUARD_TOLERANCE); it warns and skips when the baseline
# cannot be built (shallow clone, first commit, ...).
guard_tol="${MCL_OBS_GUARD_TOLERANCE:-0.15}"
baseline_ref="${MCL_BASELINE_REF:-HEAD~1}"
base_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"; git worktree remove --force "$base_dir/src" >/dev/null 2>&1 || true; rm -rf "$base_dir"' EXIT
min_wall() {
    # Runs `repro all 8 --jobs 1` three times with the given binary and
    # prints the minimum total_wall_seconds reported in BENCH_repro.json.
    local bin="$1" best="" wall
    for _ in 1 2 3; do
        (cd "$smoke_dir" && "$bin" all 8 --jobs 1 > /dev/null)
        wall="$(grep -o '"total_wall_seconds":[0-9.]*' "$smoke_dir/BENCH_repro.json" | head -1 | cut -d: -f2)"
        best="$(awk -v a="${best:-$wall}" -v b="$wall" 'BEGIN { print (a < b) ? a : b }')"
    done
    echo "$best"
}
if git worktree add --detach "$base_dir/src" "$baseline_ref" >/dev/null 2>&1 \
    && (cd "$base_dir/src" && CARGO_TARGET_DIR="$base_dir/target" cargo build --release -q -p mcl-bench); then
    current="$(min_wall "$PWD/target/release/repro")"
    baseline="$(min_wall "$base_dir/target/release/repro")"
    if awk -v cur="$current" -v base="$baseline" -v tol="$guard_tol" \
            'BEGIN { exit !(cur <= base * (1 + tol)) }'; then
        echo "overhead OK: ${current}s current vs ${baseline}s baseline (tolerance ${guard_tol})"
    else
        echo "FAIL: disabled-probe overhead ${current}s vs baseline ${baseline}s exceeds tolerance ${guard_tol}" >&2
        exit 1
    fi
else
    echo "WARN: baseline $baseline_ref unavailable; skipping overhead guard" >&2
fi

echo "CI OK"
