#!/usr/bin/env bash
# Staged local CI: `./ci.sh [lint|test|bench|all]` (default: all).
#
# The stages mirror the parallel CI jobs (.github/workflows/ci.yml):
#   lint  — rustfmt, clippy -D warnings, rustdoc -D warnings, the
#           landau-check lint binary
#   test  — release build, tier-1 + workspace tests, no-record obs
#           build, static kernel verifier, miri (when installed)
#   bench — quick gated benches + serve load test, bench_gate against
#           baselines/, table/figure smokes, kill-resume smoke, traces
# Each stage echoes its elapsed seconds so job timing is visible in
# both local runs and the CI logs.
set -euo pipefail
cd "$(dirname "$0")"

STAGE="${1:-all}"
STAGE_T0=$SECONDS

stage_done() {
  echo "== stage '$1' done in $((SECONDS - STAGE_T0))s"
  STAGE_T0=$SECONDS
}

run_lint() {
  echo "== cargo fmt --check"
  cargo fmt --all --check

  echo "== cargo clippy (deny warnings)"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "== cargo doc (deny warnings: dangling intra-doc links, private links)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

  echo "== landau-check lint"
  cargo run -q -p landau-check --bin lint

  stage_done lint
}

run_test() {
  echo "== tier-1: release build"
  cargo build --release

  echo "== tier-1: tests"
  cargo test -q

  echo "== workspace tests"
  cargo test -q --workspace

  echo "== landau-obs with recording compiled out"
  cargo test -q -p landau-obs --no-default-features

  echo "== static kernel verifier (registry proofs + seeded-defect corpus)"
  cargo run -q -p landau-check --bin verify-kernels

  echo "== miri (undefined-behavior check, vgpu + sparse + math; skipped if unavailable)"
  if cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test -q -p landau-vgpu -p landau-sparse -p landau-math
  else
    echo "miri not installed; skipping (CI runs it in a dedicated job)"
  fi

  stage_done test
}

run_bench() {
  echo "== bench build"
  cargo build --release -p landau-bench --benches --bins

  echo "== tensor cache bench (quick gate: verify + 1.4x speedup over the closed form, best of 5 interleaved)"
  cargo bench -q -p landau-bench --bench tensor_cache -- --quick

  echo "== resilience bench (quick gate: bitwise identity + recovery + obs/monitor overhead)"
  cargo bench -q -p landau-bench --bench resilience -- --quick

  echo "== invariants bench (quick gate: conservation drift ceilings + entropy floor)"
  cargo bench -q -p landau-bench --bench invariants -- --quick

  echo "== batch scaling bench (quick gate: pool-sweep/host bitwise identity; pool-sweep throughput vs baseline)"
  cargo bench -q -p landau-bench --bench batch_scaling -- --quick

  echo "== solver bench (quick gate: envelope band LU bitwise vs scalar reference + 4x speedup)"
  cargo bench -q -p landau-bench --bench solver -- --quick

  echo "== kernels bench (quick gates: cached CPU inner integral bitwise vs seven-stream reference + 2.5x; closed-form CPU kernel within 1e-13 of the per-pair reference + 2x; pair Jacobian tail within 1e-14 of the per-species reference + 3x)"
  cargo bench -q -p landau-bench --bench kernels -- --quick

  echo "== live telemetry bench (quick gate: journal on/off bitwise identity + scrape validity)"
  cargo bench -q -p landau-bench --bench obs_live -- --quick

  echo "== landau-serve load test (quick: 200 jobs / 4 tenants, kill-resume + scrape/journal probes, retention marks)"
  cargo run -q --release -p landau-bench --bin loadtest -- --quick

  echo "== telemetry export smoke (validated scrape, journal drain, per-job trace)"
  cargo run -q --release -p landau-bench --bin obs_export -- --smoke

  echo "== static kernel verifier (writes BENCH_verify.json for the gate below)"
  cargo run -q -p landau-check --bin verify-kernels

  echo "== bench regression gate (fresh BENCH_*.json vs baselines/, verify.* pinned to 0)"
  cargo run -q --release -p landau-bench --bin bench_gate

  echo "== table smoke: roofline from the metric registry"
  cargo run -q --release -p landau-bench --bin table4 -- --quick

  echo "== table smoke: timing breakdown from recorded spans"
  cargo run -q --release -p landau-bench --bin table7 -- --quick

  echo "== figure smoke: quench conductivity sweep + timeseries artifact"
  cargo run -q --release -p landau-bench --bin fig4 -- --quick

  echo "== figure smoke: monitored quench evolution + timeseries artifact"
  cargo run -q --release -p landau-bench --bin fig5 -- --quick

  echo "== checkpoint kill-resume smoke (fig5 killed at step 12, resumed, bitwise timeseries)"
  cp FIG5_timeseries.json FIG5_timeseries.whole.json
  CKPT_DIR=$(mktemp -d)
  cargo run -q --release -p landau-bench --bin fig5 -- --quick --ckpt "$CKPT_DIR" --kill-at 12 >/dev/null
  cargo run -q --release -p landau-bench --bin fig5 -- --quick --resume "$CKPT_DIR" >/dev/null
  cmp FIG5_timeseries.whole.json FIG5_timeseries.json
  rm -rf "$CKPT_DIR" FIG5_timeseries.whole.json
  echo "kill-resume timeseries byte-identical"

  echo "== trace export (Chrome trace + folded stacks)"
  cargo run -q --release -p landau-bench --bin trace_export

  stage_done bench
}

case "$STAGE" in
lint) run_lint ;;
test) run_test ;;
bench) run_bench ;;
all)
  run_lint
  run_test
  run_bench
  ;;
*)
  echo "usage: $0 [lint|test|bench|all]" >&2
  exit 2
  ;;
esac

echo "CI OK ($STAGE)"
