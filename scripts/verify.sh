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

echo "==> tier-1: tests"
cargo test -q

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

echo "==> serve subsystem: unit tests (epoll loop, sharded scheduler, framing, admission)"
cargo test -q --release -p cpr-serve --lib

echo "==> serve subsystem: loopback server smoke tests (incl. stats verb + metrics allowlist)"
cargo test -q --release -p cpr-serve --test server_smoke

echo "==> serve subsystem: bench_serve --check (report identity, no timings)"
cargo run --release -q -p cpr-serve --bin bench_serve -- --check

echo "==> observability: every allowlisted metric documented in DESIGN.md"
while IFS= read -r metric; do
  case "$metric" in ''|'#'*|'['*) continue;; esac
  subsystem="${metric%%.*}"
  # Fleet-cache and serving-tier metrics get the stricter two-level
  # prefix: a bare mention of `solver.` must not vouch for the
  # solver.fleet.* family, nor `serve.` for serve.accept.*/shard./conn.
  case "$metric" in
    solver.fleet.*) subsystem="solver.fleet";;
    serve.accept.*|serve.shard.*|serve.conn.*) subsystem="${metric%.*}";;
  esac
  grep -q -e "$metric" -e "\`$subsystem\." DESIGN.md || {
    echo "metric $metric is in docs/metrics_allowlist.txt but DESIGN.md never mentions it or its subsystem"
    exit 1
  }
done < docs/metrics_allowlist.txt

echo "==> observability: bench_obs --check (outcome identity + <3% overhead)"
cargo run --release -q -p cpr-bench --bin bench_obs -- --check

echo "==> incremental solving: bench_reduce --check (pool/stats/query identity across cache, thread, and incremental configs)"
cargo run --release -q -p cpr-bench --bin bench_reduce -- --check

echo "==> fleet cache: bench_cache --check (report identity with the persistent solver cache absent, cold, and warm)"
cargo run --release -q -p cpr-bench --bin bench_cache -- --check

echo "==> continuous repair: bench_fuzz --check (campaign determinism + three-way injection identity)"
cargo run --release -q -p cpr-bench --bin bench_fuzz -- --check

echo "==> continuous repair: E2E loopback (fuzz findings streamed over TCP match an upfront run)"
cargo test -q --release --test continuous_repair

echo "verify: OK"
