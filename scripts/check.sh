#!/usr/bin/env bash
# Full verification gate: static lint -> type check -> tier-1 tests ->
# differential equivalence over the two fastest workloads.
#
# ruff and mypy are optional locally (skipped with a notice when absent,
# so the gate stays runnable anywhere); under REPRO_CI=1 a missing tool
# is a gate FAILURE — CI images must install the [dev] extra, which pins
# both (pyproject.toml).
set -u

cd "$(dirname "$0")/.."
export PYTHONPATH=src

failures=0

step() {
    echo
    echo "==> $*"
}

# require <tool>: 0 if the tool must run and is present, 1 to skip.
# Missing tools only skip outside CI; in CI they count as failures.
require() {
    if command -v "$1" >/dev/null 2>&1; then
        return 0
    fi
    if [ "${REPRO_CI:-0}" = "1" ]; then
        echo "$1 not installed but REPRO_CI=1: FAIL (pip install -e .[dev])"
        failures=$((failures + 1))
    else
        echo "$1 not installed; skipping"
    fi
    return 1
}

step "ruff (static lint)"
if require ruff; then
    ruff check src tests || failures=$((failures + 1))
fi

step "mypy (type check)"
if require mypy; then
    mypy || failures=$((failures + 1))
fi

step "pytest (tier-1 suite)"
# Coverage floor: with pytest-cov available the tier-1 run also
# measures line coverage of the four timing-core packages (the
# columnar kernels and their scalar references) and fails below 85%
# — a retired scalar path or a dead columnar branch that the
# differential suites stopped reaching shows up here before it rots.
# Like ruff/mypy, the plugin is optional locally and mandatory in CI
# (pytest-cov ships in the [dev] extra); it is a python package, not
# a binary, so the availability probe is an import, not command -v.
cov_args=""
if python -c "import pytest_cov" >/dev/null 2>&1; then
    cov_args="--cov=repro.ooo --cov=repro.pipeline --cov=repro.multipass \
--cov=repro.runahead --cov-report=term --cov-fail-under=85"
elif [ "${REPRO_CI:-0}" = "1" ]; then
    echo "pytest-cov not installed but REPRO_CI=1: FAIL (pip install -e .[dev])"
    failures=$((failures + 1))
else
    echo "pytest-cov not installed; running without the coverage floor"
fi
# Shard across CPUs when pytest-xdist is available; serial otherwise.
if python -c "import xdist" >/dev/null 2>&1; then
    python -m pytest -x -q -n auto $cov_args || failures=$((failures + 1))
else
    python -m pytest -x -q $cov_args || failures=$((failures + 1))
fi

step "pytest -m slow (scale-1.0 results tier)"
# Stats digests for all 60 primary cells at the paper's scale; pyproject's
# addopts keeps this marker out of the tier-1 run above.
python -m pytest -x -q -m slow || failures=$((failures + 1))

step "repro lint (workload verifier)"
python -m repro lint || failures=$((failures + 1))

step "repro diffcheck (differential equivalence: vpr, parser)"
python -m repro diffcheck vpr parser || failures=$((failures + 1))

step "repro audit --smoke (static cycle-bound oracle)"
python -m repro audit --smoke --strict || failures=$((failures + 1))

step "repro sweep --smoke (parallel engine + result cache end-to-end)"
smoke_cache="$(mktemp -d)"
# Cold pass simulates and populates the cache; warm pass must serve
# every cell from disk.
python -m repro sweep --smoke --results-cache "$smoke_cache" \
    || failures=$((failures + 1))
warm_sweep="$(python -m repro sweep --smoke --results-cache "$smoke_cache")" \
    || failures=$((failures + 1))
echo "$warm_sweep"
if ! grep -qF -- "— 0 simulated, 4 from cache," <<<"$warm_sweep"; then
    echo "warm sweep did not serve all 4 cells from the cache"
    failures=$((failures + 1))
fi
rm -rf "$smoke_cache"

step "repro serve / submit (sweep service end-to-end)"
serve_dir="$(mktemp -d)"
# Loopback server on an ephemeral port; the port file is the rendezvous.
python -m repro serve --port 0 --port-file "$serve_dir/port" \
    --parallel 2 --results-cache "$serve_dir/cache" \
    >"$serve_dir/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$serve_dir/port" ] && break
    sleep 0.1
done
if [ ! -s "$serve_dir/port" ]; then
    echo "sweep service never published its port:"
    cat "$serve_dir/serve.log"
    kill "$serve_pid" 2>/dev/null
    failures=$((failures + 1))
else
    serve_port="$(cat "$serve_dir/port")"
    # Cold submit simulates every cell; warm resubmit must serve the
    # whole grid from the shared cache without a single simulation.
    python -m repro submit --smoke --port "$serve_port" --json \
        >"$serve_dir/cold.json" || failures=$((failures + 1))
    python -m repro submit --smoke --port "$serve_port" --json \
        >"$serve_dir/warm.json" || failures=$((failures + 1))
    python - "$serve_dir/cold.json" "$serve_dir/warm.json" \
        <<'EOF' || failures=$((failures + 1))
import json, sys
from repro.harness import run_matrix
cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
serial = run_matrix(("inorder", "multipass"), ("vpr", "parser"),
                    scale=0.05)
cells = {(e["workload"], e["model"]): e["stats"]
         for e in cold["events"] if e["kind"] == "cell"}
assert len(cells) == 4, sorted(cells)
for (w, m), stats in cells.items():
    assert stats == serial.get(w, m).to_dict(), \
        f"{w}/{m}: service result differs from a direct sweep"
assert cold["report"]["failures"] == 0, cold["report"]
assert warm["report"]["simulated"] == 0, warm["report"]
assert warm["report"]["cache_hits"] > 0, warm["report"]
print("service smoke ok: 4 cells bit-identical to a direct sweep, "
      f"warm resubmit {warm['report']['cache_hits']} cache hit(s), "
      "0 simulations")
EOF
    # Clean shutdown: SIGTERM must reap the fleet and exit 0.
    kill -TERM "$serve_pid"
    if wait "$serve_pid"; then
        echo "service shut down cleanly"
    else
        echo "service exited non-zero on SIGTERM"
        failures=$((failures + 1))
    fi
fi
rm -rf "$serve_dir"

step "repro bench --smoke (perf gate: <=20% regression at reference host speed)"
# Every cell is timed between two CPU-time speed probes and scaled to
# the host speed recorded with the baseline (reference_probe_s), so
# the host's 20-50% frequency swings cancel instead of failing the
# gate.  --against gates the matrix total; --compare additionally
# gates each model's cycles/second, so a model-specific slowdown (one
# kernel 30% slower reads ~0.77x) fails the gate even when the other
# cells absorb it in the total.  What scaling leaves is per-process
# noise of about +-8% per model on each side, hence 20%.  Re-record
# the baseline on purpose when a kernel's speed changes:
#   python -m repro bench --smoke --out benchmarks/bench_smoke_baseline.json
python -m repro bench --smoke \
    --against benchmarks/bench_smoke_baseline.json --max-regression 0.20 \
    --compare benchmarks/bench_smoke_baseline.json \
    || failures=$((failures + 1))

step "repro trace / profile (telemetry round-trip)"
trace_dir="$(mktemp -d)"
# The Chrome export must be loadable trace-event JSON with mode spans
# (what Perfetto renders as the mode track).
python -m repro trace mcf --model multipass --scale 0.05 \
    --format chrome --out "$trace_dir/mcf.json" \
    || failures=$((failures + 1))
python - "$trace_dir/mcf.json" <<'EOF' || failures=$((failures + 1))
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
modes = [e for e in events if e.get("cat") == "mode" and e["ph"] == "X"]
assert modes, "no mode spans in the Chrome trace"
assert any(e["ph"] == "X" and e.get("cat") == "stall" for e in events)
print(f"chrome trace ok: {len(events)} events, {len(modes)} mode spans")
EOF
python -m repro profile mcf --scale 0.05 --top 5 >/dev/null \
    || failures=$((failures + 1))
# Aggregating telemetry runs on the columnar kernels: profile every
# primary model (the OOO and runahead kernel routes included) and
# collect sweep summaries.
python -m repro profile mcf --all-models --scale 0.05 >/dev/null \
    || failures=$((failures + 1))
python -m repro sweep --smoke --telemetry >/dev/null \
    || failures=$((failures + 1))
rm -rf "$trace_dir"

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) FAILED"
    exit 1
fi
echo "check.sh: all steps passed"
