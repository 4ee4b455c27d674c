#!/usr/bin/env sh
# Tier-1 verification: the workspace must build offline (zero external
# dependencies) and the root package's build + test gate must pass.
# Run from anywhere; operates on the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "==> offline build (no registry, no network)"
cargo build --offline --workspace

if command -v rustfmt >/dev/null 2>&1; then
  echo "==> formatting (cargo fmt --check)"
  cargo fmt --all -- --check
else
  echo "==> formatting: rustfmt not installed, skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
  echo "==> lints (cargo clippy -D warnings)"
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "==> lints: clippy not installed, skipping"
fi

echo "==> tier-1: release build"
cargo build --release

echo "==> benchmark build: cargo check bench_e2e (its own Cargo workspace, so no step above compiles it)"
cargo check --offline --manifest-path bench_e2e/Cargo.toml

echo "==> tier-1: tests"
cargo test -q

echo "==> execution engine, solver and repair-core crates' tests, debug (overflow checks on, unlike the release run below)"
cargo test -q -p cpr-lang -p cpr-concolic -p cpr-smt -p cpr-core

echo "==> static lint of shipped subjects (cpr-lint, zero diagnostics expected)"
cargo run --release -q -p cpr-analysis --bin cpr-lint programs/*.cpr

echo "==> static lint fixtures: each must fire exactly its expected diagnostic"
for fixture in div_zero:possible-division-by-zero index_oob:possible-index-out-of-bounds; do
  name="${fixture%%:*}"
  code="${fixture#*:}"
  out="$(cargo run --release -q -p cpr-analysis --bin cpr-lint "programs/lint_fixtures/$name.cpr" || true)"
  echo "$out" | grep -q "\"code\":\"$code\"" || {
    echo "fixture $name.cpr did not report $code"
    exit 1
  }
done

echo "==> every crate's tests, release (solver properties and pinned answers, cpr-core units, serve units + loopback smoke, continuous-repair loopback)"
cargo test -q --release --workspace

echo "==> serve subsystem: bench_serve --check (report identity, no timings)"
cargo run --release -q -p cpr-serve --bin bench_serve -- --check

echo "==> observability: every allowlisted metric documented in DESIGN.md"
while IFS= read -r metric; do
  case "$metric" in ''|'#'*|'['*) continue;; esac
  subsystem="${metric%%.*}"
  # Serving-tier transport metrics get the stricter two-level prefix: a
  # bare mention of `serve.` must not vouch for serve.accept.*/conn.*.
  case "$metric" in
    serve.accept.*|serve.conn.*) subsystem="${metric%.*}";;
  esac
  grep -q -e "$metric" -e "\`$subsystem\." DESIGN.md || {
    echo "metric $metric is in docs/metrics_allowlist.txt but DESIGN.md never mentions it or its subsystem"
    exit 1
  }
done < docs/metrics_allowlist.txt

echo "==> observability: bench_obs --check (outcome identity + <3% overhead)"
cargo run --release -q -p cpr-bench --bin bench_obs -- --check

echo "==> reduce phase: bench_reduce --check (pool/stats/query/Unknown identity across cache and thread configs)"
cargo run --release -q -p cpr-bench --bin bench_reduce -- --check

echo "==> continuous repair: bench_fuzz --check (campaign determinism + three-way injection identity)"
cargo run --release -q -p cpr-bench --bin bench_fuzz -- --check

echo "verify: OK"
