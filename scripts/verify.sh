#!/usr/bin/env bash
# Tier-1 verification: offline release build, the full test suite, lint
# gates (rustfmt + clippy with warnings denied), and smoke passes of the
# benchmark harnesses (one un-warmed call per bench, so every bench
# target's code path runs and its report is written and well-formed).
# Smoke reports go to the scratch directory target/verify/; the committed
# BENCH_*.json files come only from full runs and are never overwritten
# here.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."
scratch=target/verify
mkdir -p "$scratch"

echo "== tier-1: release build =="
cargo build --release --workspace

echo "== tier-1: tests =="
cargo test -q --workspace

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint: hems-lint =="
# The repo's own static-analysis gate (DESIGN.md §10): panic-freedom on
# the service plane, unit discipline in the physics crates, determinism
# in the solvers, crate hygiene. It scans its own source too. Exits
# nonzero on any non-baselined finding.
cargo run --release -q -p hems-lint
# The --json mode must stay machine-readable, and the summary must prove
# the three interprocedural passes (DESIGN.md §15) actually ran: a
# non-trivial call graph was built and a per-pass count is present for
# each of panic_reach / lock_order / taint. A refactor that silently
# drops a pass fails here, not in production.
lint_summary="$(cargo run --release -q -p hems-lint -- --json | tail -1)"
LINT_SUMMARY="$lint_summary" python3 - <<'PYEOF'
import json, os
summary = json.loads(os.environ["LINT_SUMMARY"])
assert summary.get("summary") is True, f"not a summary line: {summary}"
assert summary["functions"] > 500, f"call graph too small: {summary['functions']} fns"
assert summary["edges"] > 1000, f"call graph too small: {summary['edges']} edges"
# lock_order must keep seeing the service plane's mutexes: 35 acquisitions
# (`.lock()` and `relock(&m)`) in serve/router/sim/obs when this floor was
# set. A rename of the shared relock helper that blinds the pass fails here.
assert summary["lock_sites"] > 32, f"lock_order modelled only {summary['lock_sites']} lock sites"
passes = summary["passes"]
for name in ("panic_reach", "lock_order", "taint"):
    assert name in passes, f"pass {name} missing from summary"
print(f"verify: hems-lint ran all 3 passes over "
      f"{summary['functions']} fns / {summary['edges']} edges "
      f"({summary['lock_sites']} lock sites) in {summary['wall_ms']} ms")
PYEOF
# JSON-lines smoke: findings and the summary line must round-trip
# through the workspace's JSON codec, hems_obs::json (the same codec the
# serve wire protocol speaks; the full round-trip lives in
# crates/lint/tests/gate.rs — this runs it end-to-end).
cargo test --release -q -p hems-lint --test gate json_output_round_trips > /dev/null \
    || { echo "verify: hems-lint JSON round-trip through hems_obs::json failed" >&2; exit 1; }

echo "== chaos: seeded campaign (writes $scratch/BENCH_chaos.json) =="
# Fixed-seed smoke campaign (DESIGN.md §11): brownouts at checkpoint
# boundaries, worker-pool panics, and torn/dropped/slow connections
# through the chaos proxy. The bin exits nonzero if any injected fault
# goes unrecovered; the report is byte-for-byte reproducible per seed.
cargo run --release -q -p hems-chaos -- --seed 7 --smoke --out "$scratch/BENCH_chaos.json" > /dev/null
# The committed BENCH_chaos.json comes from a full run and must cover
# every surface the campaign runs today: a surface added to the code but
# missing from the committed artifact means the artifact is stale.
python3 - <<'EOF'
import json
smoke = json.load(open("target/verify/BENCH_chaos.json"))
committed = json.load(open("BENCH_chaos.json"))
ran = [s["surface"] for s in smoke["surfaces"]]
listed = {s["surface"] for s in committed["surfaces"]}
missing = [s for s in ran if s not in listed]
assert not missing, f"committed BENCH_chaos.json lacks surfaces {missing}; regenerate it"
print(f"verify: committed BENCH_chaos.json covers all {len(ran)} chaos surfaces")
EOF

echo "== fleet: smoke (writes $scratch/BENCH_fleet.json) =="
# Fleet-twin smoke campaign (DESIGN.md §14): a small seeded fleet runs a
# full simulated day through the serve-backed planning tier, with
# regional brownout storms and sampled commit-digest checks. The bin
# exits nonzero on any crash-consistency violation or unrecovered storm;
# the report lines are byte-for-byte reproducible per seed.
cargo run --release -q -p hems-fleet -- --smoke --out "$scratch/BENCH_fleet.json" > /dev/null

echo "== conformance: goldens + fuzz (writes $scratch/BENCH_conformance.json) =="
# The conformance gate (DESIGN.md §16): committed golden fixtures must
# be bit-for-bit identical to recomputed solver outputs (intentional
# changes are re-captured with --bless), the committed corpus of
# interesting seeds must replay clean, the seeded differential fuzz
# plane must find no divergence between any fast path and its
# reference, and the shrinker must still minimize a planted divergence
# to a one-line repro. All timing goes through hems_obs::clock.
cargo run --release -q -p hems-conformance -- --check
cargo run --release -q -p hems-conformance -- --corpus
cargo run --release -q -p hems-conformance -- --self-test
cargo run --release -q -p hems-conformance -- --fuzz --seed 7 --cases 1000 \
    --budget-ms 120000 --out "$scratch/BENCH_conformance.json"
python3 - <<'EOF'
import json
report = json.load(open("target/verify/BENCH_conformance.json"))
assert report["fixtures"] >= 10, f"only {report['fixtures']} golden fixtures"
oracles = report["oracles"]
assert len(oracles) >= 6, f"only {len(oracles)} oracles ran"
for oracle in oracles:
    name, cases = oracle["name"], oracle["cases"]
    assert cases >= 1000, f"oracle {name} ran only {cases} cases"
    assert oracle["divergences"] == 0, f"oracle {name} diverged"
total = sum(o["cases"] for o in oracles)
rate = total / (report["total_wall_ms"] / 1e3)
print(f"verify: {report['fixtures']} fixtures bit-for-bit, "
      f"{len(oracles)} oracles x {oracles[0]['cases']} cases, "
      f"{rate:.0f} cases/sec overall")
EOF

echo "== load: router smoke (writes $scratch/BENCH_load.json) =="
# Serving-tier smoke (DESIGN.md §17): a seeded open-loop load run
# against a router-fronted shard set. The bin exits nonzero if the
# router-vs-direct response digests diverge; the checks below re-assert
# the digest match and that no request errored in the digest pass.
HEMS_BENCH_SMOKE=1 cargo run --release -q -p hems-load -- --out "$scratch/BENCH_load.json" > /dev/null
python3 - <<'EOF'
import json
report = json.load(open("target/verify/BENCH_load.json"))
digest = report["digest"]
assert digest["match"], "router-vs-direct digest mismatch"
assert digest["requests"] > 0, "digest pass sent no requests"
scaling = report["scaling"]
assert scaling["one_backend_hz"] > 0 and scaling["three_backend_hz"] > 0
assert report["knee"]["points"], "knee ramp recorded no points"
print(f"verify: router digest-transparent over {digest['requests']} "
      f"requests, 1->3 backend speedup {scaling['speedup']:.2f}x (smoke)")
EOF

echo "== smoke bench: sweep (writes $scratch/BENCH_sweep.json) =="
HEMS_BENCH_SMOKE=1 cargo bench -q -p hems-bench --bench sweep
# The batch engine is the sweep's fast path: it must beat the exact
# reference (the chunked engine on the same core count) at every scenario
# count, on any host. The bench records the paired speedup per scaling
# point; a value below 1.0 means the fast path stopped paying for itself.
python3 - <<'EOF'
import json
report = json.load(open("target/verify/BENCH_sweep.json"))
points = report["scaling"]
assert sorted(p["scenarios"] for p in points) == [8, 32, 128], \
    "the sweep report must cover 8/32/128 scenarios"
for point in points:
    n, speedup = point["scenarios"], point["batch_speedup"]
    assert speedup >= 1.0, \
        f"batch engine speedup {speedup} < 1.0 over exact at {n} scenarios"
print(f"verify: batch speedup >= 1.0 over exact at all {len(points)} scaling points")
EOF

echo "== obs: overhead + metrics smoke =="
# Telemetry smoke (DESIGN.md §12): the overhead bench runs one pass of
# the sweep with telemetry enabled and disabled (the <= 2% assertion only
# fires in full, non-smoke runs) and writes $scratch/BENCH_obs.json; the example
# stands up a loopback server, drives a mixed workload, and asserts the
# `metrics` query returns sweep/solver/cache/admission series (the solver
# plane through `serve.solve_ns`: serve solves on its connection threads,
# not the worker pool).
HEMS_BENCH_SMOKE=1 cargo bench -q -p hems-bench --bench obs
cargo run --release -q --example metrics_query > /dev/null

# The obs bench self-validates its report before exiting; double-check
# that every smoke report landed in the scratch directory and that every
# committed full-run report is still in place.
for report in BENCH_sweep.json BENCH_chaos.json BENCH_obs.json BENCH_fleet.json BENCH_conformance.json BENCH_load.json; do
    [ -s "$scratch/$report" ] || { echo "verify: missing $scratch/$report" >&2; exit 1; }
    [ -s "$report" ] || { echo "verify: missing committed $report" >&2; exit 1; }
done

echo "verify: OK"
