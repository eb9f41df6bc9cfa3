#!/usr/bin/env bash
# One-command PR gate: tier-1 verify (configure + build + full ctest) plus a
# bench_kernels smoke run so kernel-throughput regressions surface early.
# The main build promotes warnings to errors (-DRT_WERROR=ON); local builds
# outside the gate keep them as warnings.
#
#   scripts/check.sh               # gate only (human-readable smoke output)
#   scripts/check.sh --bench-json  # additionally write BENCH_kernels.json —
#                                  # GEMM + conv + engine throughput (single-
#                                  # and multi-thread) in google-benchmark's
#                                  # JSON schema, so the kernel perf
#                                  # trajectory is machine-readable across
#                                  # PRs.
#   scripts/check.sh --lint        # additionally run tools/rtlint over src/
#                                  # and an -DRT_AUDIT=ON build of the audit +
#                                  # concurrency suites (allocation counting,
#                                  # lock-order assertions).
#   scripts/check.sh --tsan        # additionally build build-tsan/ with
#                                  # -DRT_SANITIZE=thread and run the
#                                  # concurrency-heavy suites (scheduler,
#                                  # engine, serving, registry, common, gemm,
#                                  # quant kernels, conv kernels, prediction
#                                  # cache, socket front-end) under
#                                  # ThreadSanitizer.
#   scripts/check.sh --asan        # same suites under AddressSanitizer
#                                  # (-DRT_SANITIZE=address).
#   scripts/check.sh --ubsan       # same suites under UBSan with
#                                  # -fno-sanitize-recover=all, so any UB
#                                  # report fails the gate.
#
# Every requested pass runs even when an earlier one fails (a red tier-1
# does not hide the lint, audit, sanitizer or bench results); the script then
# exits non-zero and names each failed pass.
#
# Thread counts are pinned via RT_THREADS for reproducibility; override by
# exporting RT_THREADS before invoking.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_JSON=0
LINT=0
TSAN=0
ASAN=0
UBSAN=0
for arg in "$@"; do
  case "$arg" in
    --bench-json) BENCH_JSON=1 ;;
    --lint) LINT=1 ;;
    --tsan) TSAN=1 ;;
    --asan) ASAN=1 ;;
    --ubsan) UBSAN=1 ;;
    *) echo "usage: $0 [--bench-json] [--lint] [--tsan] [--asan] [--ubsan]" >&2
       exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"
export RT_THREADS="${RT_THREADS:-$JOBS}"

FAILED_PASSES=()

# run_pass <name> <command...>: runs one pass and records its failure instead
# of exiting. bash switches errexit off inside a command run under `||`, so
# each pass chains its own steps with && (a failed build never runs stale
# test binaries).
run_pass() {
  local name="$1"
  shift
  local status=0
  "$@" || status=$?
  if (( status != 0 )); then
    echo "check.sh: ${name} pass failed (exit ${status})" >&2
    FAILED_PASSES+=("${name}")
  fi
}

tier1_pass() {
  cmake -B build -S . -DRT_WERROR=ON &&
    cmake --build build -j"${JOBS}" &&
    ctest --test-dir build --output-on-failure -j"${JOBS}"
}
run_pass tier-1 tier1_pass

# The concurrency-heavy suites every sanitizer pass exercises, plus the
# quantized kernel suite (int8 packing/requant arithmetic is where UB —
# narrowing, shifts, aliasing — would live) and the fp32 conv kernel suite
# (gather/scatter index math and parallel_tiles). One list so the echo, the
# build targets, and the ctest filter cannot drift apart.
SAN_SUITES=(test_scheduler test_engine test_serving test_registry test_common
            test_gemm test_quant_kernels test_conv_kernels test_cache test_net)
SAN_FILTER="$(IFS='|'; echo "${SAN_SUITES[*]}")"

# run_sanitizer_pass <name> <build_dir> <rt_sanitize_value>
run_sanitizer_pass() {
  local name="$1" dir="$2" value="$3"
  echo "== ${name} pass (${SAN_SUITES[*]}) =="
  cmake -B "${dir}" -S . -DRT_SANITIZE="${value}" -DRT_BUILD_BENCHES=OFF \
        -DRT_BUILD_EXAMPLES=OFF -DRT_MARCH_NATIVE=OFF &&
    cmake --build "${dir}" -j"${JOBS}" --target "${SAN_SUITES[@]}" &&
    ctest --test-dir "${dir}" --output-on-failure -j1 -R "${SAN_FILTER}"
}

audit_pass() {
  echo "== RT_AUDIT pass (alloc counting + lock-order assertions) =="
  cmake -B build-audit -S . -DRT_AUDIT=ON -DRT_BUILD_BENCHES=OFF \
        -DRT_BUILD_EXAMPLES=OFF &&
    cmake --build build-audit -j"${JOBS}" \
          --target test_audit test_scheduler test_serving &&
    ctest --test-dir build-audit --output-on-failure -j1 \
          -R 'test_audit|test_scheduler|test_serving'
}

if [[ "${LINT}" == 1 ]]; then
  echo "== rtlint pass (tools/rtlint over src/ and tools/) =="
  run_pass rtlint ./build/rtlint --root . src tools
  run_pass RT_AUDIT audit_pass
fi

if [[ "${TSAN}" == 1 ]]; then
  # TSan only observes races that actually interleave, so the pass is
  # meaningless at RT_THREADS=1, which is what `nproc` gives on a one-CPU
  # runner. Force at least two workers: on one CPU the threads still
  # time-slice across every synchronization point, which is exactly the
  # traffic TSan instruments.
  RT_THREADS="$(( RT_THREADS > 2 ? RT_THREADS : 2 ))" \
    run_pass ThreadSanitizer run_sanitizer_pass ThreadSanitizer build-tsan thread
fi

if [[ "${ASAN}" == 1 ]]; then
  run_pass AddressSanitizer \
    run_sanitizer_pass AddressSanitizer build-asan address
fi

if [[ "${UBSAN}" == 1 ]]; then
  run_pass UndefinedBehaviorSanitizer \
    run_sanitizer_pass UndefinedBehaviorSanitizer build-ubsan undefined
fi

# run_bench_smoke <binary> <filter> <json_out> <description>
# --benchmark_out writes the JSON in addition to the console report, so one
# run serves both the human gate and the machine-readable snapshot.
run_bench_smoke() {
  local binary="$1" filter="$2" json_out="$3" description="$4"
  if [[ ! -x "build/${binary}" ]]; then
    echo "${binary} not built (google-benchmark missing); skipping smoke run"
    return
  fi
  echo "== ${binary} smoke (${description}) =="
  local extra_args=()
  if [[ "${BENCH_JSON}" == 1 ]]; then
    extra_args+=(--benchmark_out="${json_out}" --benchmark_out_format=json)
  fi
  # run_pass calls this under `||`, where errexit is off: return a failed or
  # crashed bench binary's status explicitly so run_pass records it.
  "./build/${binary}" \
    --benchmark_filter="${filter}" \
    --benchmark_min_time=0.05 \
    "${extra_args[@]}" || return
  if [[ "${BENCH_JSON}" == 1 ]]; then
    echo "wrote ${json_out}"
  fi
}

run_pass bench_kernels-smoke run_bench_smoke bench_kernels \
  'BM_Matmul|BM_Gemm|BM_ConvTrain|BM_ConvForward|BM_EngineThroughput' \
  BENCH_kernels.json "GEMM + conv + engine throughput"
run_pass bench_serving-smoke run_bench_smoke bench_serving \
  'BM_Server|BM_Registry|BM_Cache|BM_Net' BENCH_serving.json \
  "async micro-batching front-end + registry hot swap + prediction cache + socket front-end"

if (( ${#FAILED_PASSES[@]} > 0 )); then
  echo "check.sh: FAILED passes: ${FAILED_PASSES[*]}" >&2
  exit 1
fi
echo "check.sh: all gates passed"
