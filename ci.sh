#!/usr/bin/env bash
# The full gate: kwslint, tier-1 build + tests, ASan/UBSan over the full
# suite, ThreadSanitizer over the concurrent serving suites, the smoke
# benches, then the serving benchmark. Run from anywhere; paths are
# repo-relative. Each tier's wall-clock is recorded and a timing summary
# prints at the end.
set -euo pipefail
cd "$(dirname "$0")"

jobs="$(nproc)"

tier_names=()
tier_secs=()
tier_start=${SECONDS}
tier_begin() {
  tier_start=${SECONDS}
  echo "== $1 =="
}
tier_end() {
  tier_names+=("$1")
  tier_secs+=("$((SECONDS - tier_start))")
}

tier_begin "tier 0: kwslint (invariant checker, JSON export)"
cmake --preset default
cmake --build build -j "${jobs}" --target kwslint
mkdir -p bench-out
# Fails (exit 1) on any non-baselined finding; the JSON snapshot rides
# along in bench-out/ with the experiment exports. On failure re-run in
# text mode so the log shows readable file:line diagnostics.
if ! ./build/tools/kwslint . --format=json > bench-out/kwslint.json; then
  echo "kwslint found non-baselined findings:"
  ./build/tools/kwslint . || true
  exit 1
fi
tier_end "tier 0 kwslint"

tier_begin "tier 1: build + ctest (Release)"
cmake --build build -j "${jobs}"
ctest --test-dir build --output-on-failure
tier_end "tier 1 build+ctest"

tier_begin "tier 2: ASan+UBSan (full ctest, Debug, contracts live)"
cmake --preset asan
cmake --build build-asan -j "${jobs}"
ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  ctest --test-dir build-asan --output-on-failure
tier_end "tier 2 asan/ubsan"

tier_begin "tier 3: ThreadSanitizer (serve, common, cn_parallel, trace, shard, update, obs)"
cmake --preset tsan
cmake --build build-tsan -j "${jobs}" --target serve_test common_test \
  cn_parallel_test trace_test shard_test update_test obs_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/serve_test
# A lost worker wakeup is a rare interleaving: rerun the handoff cases.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/serve_test \
  --gtest_filter='ServeHandoffTest.*' --gtest_repeat=50
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/common_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/cn_parallel_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/trace_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/shard_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/update_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/obs_test
tier_end "tier 3 tsan"

tier_begin "tier 4: smoke benches + JSON export + benchdiff gate (E20..E25)"
cmake --build build -j "${jobs}" --target benchdiff
./build/bench/bench_postings --smoke --json=bench-out/E20.json
./build/bench/bench_cn_parallel --smoke --json=bench-out/E21.json
./build/bench/bench_trace --smoke --json=bench-out/E22.json
./build/bench/bench_sharding --smoke --json=bench-out/E23.json
./build/bench/bench_updates --smoke --json=bench-out/E24.json
./build/bench/bench_obs --smoke --json=bench-out/E25.json
# Every export must exist and parse as a bench JSON document.
for f in bench-out/E20.json bench-out/E21.json bench-out/E22.json \
         bench-out/E23.json bench-out/E24.json bench-out/E25.json; do
  [ -s "$f" ] || { echo "missing bench JSON: $f"; exit 1; }
  ./build/tools/benchdiff --check "$f"
done
# The perf-regression gate: structural drift always fails; smoke-run
# timings are noisy, so the ratio band is generous — a real regression
# is an order-of-magnitude event, not a 2x one. Refresh workflow: rerun
# the smoke benches and copy bench-out/E*.json over bench/baselines/.
for f in E20 E21 E22 E23 E24 E25; do
  ./build/tools/benchdiff --tolerance=5.0 \
    "bench/baselines/${f}.json" "bench-out/${f}.json"
done
tier_end "tier 4 benches"

tier_begin "tier 5: serving benchmark (build, servebench_test, every workload)"
# servebench compiles src/ as its own CMake package and calls the library
# directly, so a src/ refactor can break it without failing tiers 1-4.
cmake -S servebench -B .bench_build/servebench -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build/servebench -j "${jobs}" \
  --target servebench servebench_test
./.bench_build/servebench/servebench_test
# A short closed-loop run of all four workloads; exits non-zero when any
# answer fails its check.
CARGO_TARGET_DIR=.bench_build \
  python3 servebench/run.py --workload all --seed 1 --seconds 2 --trace 0
tier_end "tier 5 servebench"

echo "== timings =="
for i in "${!tier_names[@]}"; do
  printf '%-22s %4ss\n' "${tier_names[$i]}" "${tier_secs[$i]}"
done
echo "CI OK"
