#!/usr/bin/env bash
# Full verification: lint the docs, configure, build, run every test, run
# every bench, and fail if any test fails or any bench prints a failing
# shape check. Optionally re-runs the threading and observability tests
# under ThreadSanitizer when the toolchain supports it (skip with
# ECGF_SKIP_TSAN=1).
set -euo pipefail
cd "$(dirname "$0")/.."

# --- Docs lint: every relative markdown link must resolve, and every
# ECGF_* name the docs mention must exist somewhere in the sources or
# build scripts (catches docs going stale when a flag is renamed).
docs_fail=0
while IFS= read -r md; do
  dir="$(dirname "$md")"
  while IFS= read -r link; do
    target="${link%%#*}"             # drop the #anchor part
    [[ -z "$target" ]] && continue   # pure anchor link
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    if [[ ! -e "$dir/$target" ]]; then
      echo "!! broken link in $md: $link" >&2
      docs_fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
  while IFS= read -r name; do
    if ! grep -rq --include='*.h' --include='*.cpp' --include='*.sh' \
         --include='CMakeLists.txt' --include='*.cmake' -- "$name" \
         src tests bench examples scripts CMakeLists.txt; then
      echo "!! stale name in $md: $name not found in sources" >&2
      docs_fail=1
    fi
  done < <(grep -ohE 'ECGF_[A-Z0-9_]+' "$md" | sort -u)
  # Schema-version strings quoted in the user-facing docs must match a
  # bench header exactly (catches docs going stale when a schema bumps).
  # EXPERIMENTS.md quotes schemas and flags too — it is part of the
  # linted surface, not an exception.
  case "$md" in
    ./README.md|./EXPERIMENTS.md|./docs/*)
      while IFS= read -r schema; do
        if ! grep -rq --include='*.cpp' --include='*.h' -- "$schema" bench; then
          echo "!! stale schema version in $md: $schema not emitted by any bench" >&2
          docs_fail=1
        fi
      done < <(grep -ohE 'ecgf-[a-z-]+/[0-9]+' "$md" | sort -u)
      # Every --flag the docs document must be accepted somewhere: either as
      # a literal --flag (benches parse argv directly) or as a bare "flag"
      # (examples register through util::Flags::define). CMake/ctest flags
      # that appear in build instructions are allowlisted.
      while IFS= read -r flag; do
        name="${flag#--}"
        case "$name" in
          build|target|test-dir|output-on-failure|parallel|help|version) continue ;;
        esac
        if ! grep -rq --include='*.h' --include='*.cpp' --include='*.sh' \
             -e "\-\-$name" -e "\"$name\"" src tests bench examples scripts; then
          echo "!! stale CLI flag in $md: $flag not accepted by any bench or example" >&2
          docs_fail=1
        fi
      done < <(grep -ohE -e '--[a-z][a-z0-9-]+' "$md" | sort -u)
      ;;
  esac
done < <(find . -path ./build -prune -o -path ./build-tsan -prune -o \
         -path ./build-asan -prune -o -name '*.md' -print)
# The profiling-scope table in docs/observability.md must list exactly the
# ECGF_PROF_SCOPE("...") literals in src/ (catches a scope added or renamed
# without its doc row).
scopes_src="$(grep -rhoE 'ECGF_PROF_SCOPE\("[^"]+"\)' src \
  | sed -E 's/^ECGF_PROF_SCOPE\("//; s/"\)$//' | sort -u)"
scopes_doc="$(sed -n '/^| scope | covers |$/,/^$/p' docs/observability.md \
  | grep -oE '^\| `[^`]+` \|' | sed -E 's/^\| `//; s/` \|$//' | sort -u)"
if [[ "$scopes_src" != "$scopes_doc" ]]; then
  echo "!! docs/observability.md scope table differs from ECGF_PROF_SCOPE in src/:" >&2
  diff <(echo "$scopes_doc") <(echo "$scopes_src") | sed 's/^/   /' >&2 || true
  docs_fail=1
fi
if [[ "$docs_fail" != "0" ]]; then
  echo "!! docs lint failed" >&2
  exit 1
fi
echo "== docs lint OK =="

# Prefer Ninja for speed, but fall back to CMake's default generator
# (usually Unix Makefiles) where ninja isn't installed. An existing build
# tree keeps whatever generator it was configured with — CMake refuses to
# switch generators in place.
generator=()
if command -v ninja >/dev/null 2>&1 && [[ ! -f build/CMakeCache.txt ]]; then
  generator=(-G Ninja)
fi

cmake -B build "${generator[@]}"
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

fail=0
for b in build/bench/*; do
  # Makefiles build trees keep CMake droppings next to the binaries.
  [[ -f "$b" && -x "$b" ]] || continue
  out="$("$b")" || fail=1
  echo "$out"
  if grep -q "shape-check: FAIL" <<<"$out"; then
    echo "!! shape-check failure in $b" >&2
    fail=1
  fi
done

# Control-plane smoke: the churn ablation at smoke sizes, with its JSON
# report parsed to catch exporter regressions (the full-size run already
# happened in the bench loop above; this exercises the --smoke/--json-out
# path).
echo "== ctl smoke (bench/ablation_churn --smoke) =="
churn_json="$(mktemp)"
churn_out="$(./build/bench/ablation_churn --smoke --json-out="$churn_json")" \
  || fail=1
echo "$churn_out"
if grep -q "shape-check: FAIL" <<<"$churn_out"; then
  echo "!! shape-check failure in ctl smoke" >&2
  fail=1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$churn_json" <<'PYGATE' || { echo "!! ctl smoke JSON gate failed" >&2; fail=1; }
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "ecgf-ablation-churn/2", d["schema"]
c = d["congestion"]
assert c["static_miss_ms"] > 0 and c["maintained_miss_ms"] > 0, c
print("ctl smoke JSON gate OK")
PYGATE
else
  grep -q '"schema": "ecgf-ablation-churn/2"' "$churn_json" \
    || { echo "!! ctl smoke JSON missing schema marker" >&2; fail=1; }
fi
rm -f "$churn_json"

# Scheme bake-off smoke: every registered scheme head-to-head at smoke
# sizes. The JSON gate checks the registry wiring and the cost honesty,
# not just parseability: all six registered schemes must appear, every
# entry must carry positive probing/interaction costs and a valid
# partition, and SDSL must beat the random strawman on quiet miss
# latency at every network size — the bake-off's reason to exist.
echo "== bake-off smoke (bench/bakeoff --smoke) =="
bakeoff_json="$(mktemp)"
bakeoff_out="$(./build/bench/bakeoff --smoke --json-out="$bakeoff_json")" \
  || fail=1
echo "$bakeoff_out"
if grep -q "shape-check: FAIL" <<<"$bakeoff_out"; then
  echo "!! shape-check failure in bake-off smoke" >&2
  fail=1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$bakeoff_json" <<'PYGATE' || { echo "!! bake-off smoke JSON gate failed" >&2; fail=1; }
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "ecgf-bench-bakeoff/1", d["schema"]
assert d["schemes"] == ["sl", "sdsl", "random", "geo", "proximity", "ucc"], \
    d["schemes"]
entries = d["entries"]
sizes = sorted({e["n"] for e in entries})
for n in sizes:
    present = {e["scheme"] for e in entries if e["n"] == n}
    assert present == set(d["schemes"]), f"n={n} missing {set(d['schemes']) - present}"
for e in entries:
    assert e["partition_valid"], e
    assert e["formation_probes"] > 0, e
    assert e["gicost_ms"] > 0, e
by = {(e["n"], e["scheme"]): e for e in entries}
for n in sizes:
    sdsl = by[(n, "sdsl")]["quiet"]["avg_miss_latency_ms"]
    rand = by[(n, "random")]["quiet"]["avg_miss_latency_ms"]
    assert sdsl < rand, f"n={n}: sdsl miss {sdsl} not below random {rand}"
print(f"bake-off smoke JSON gate OK ({len(entries)} entries, "
      f"{len(d['schemes'])} schemes, sizes {sizes})")
PYGATE
else
  grep -q '"schema": "ecgf-bench-bakeoff/1"' "$bakeoff_json" \
    || { echo "!! bake-off smoke JSON missing schema marker" >&2; fail=1; }
fi
rm -f "$bakeoff_json"

# Network-model smoke: the flash-crowd congestion ablation at smoke sizes.
# The JSON gate checks the physics, not just parseability: the overloaded
# network must record queue drops and ECN marks, and the quiet (no flash
# crowd) control arm on the same topology must record none — if either
# side flips, the link model's queue accounting has regressed.
echo "== net smoke (bench/ablation_net --smoke) =="
net_json="$(mktemp)"
net_out="$(./build/bench/ablation_net --smoke --json-out="$net_json")" \
  || fail=1
echo "$net_out"
if grep -q "shape-check: FAIL" <<<"$net_out"; then
  echo "!! shape-check failure in net smoke" >&2
  fail=1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$net_json" <<'PYGATE' || { echo "!! net smoke JSON gate failed" >&2; fail=1; }
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "ecgf-bench-net/1", d["schema"]
over = d["overload"]["rtt_only"]
assert over["drops"] > 0, over
assert over["marks"] > 0, over
quiet = d["quiet"]
assert quiet["drops"] == 0 and quiet["marks"] == 0, quiet
print("net smoke JSON gate OK")
PYGATE
else
  grep -q '"schema": "ecgf-bench-net/1"' "$net_json" \
    || { echo "!! net smoke JSON missing schema marker" >&2; fail=1; }
fi
rm -f "$net_json"

# Sharded-engine smoke: the scaling sweep at smoke sizes on a 4-thread
# pool (the full-size sweep already happened in the bench loop above,
# at the host's configured thread count). The JSON gate checks the
# exported fields, not just parseability: every sharded entry must have
# executed on min(shards, 4) threads, and on hosts with ≥4 real cores
# the 4-shard entries must not be SLOWER than sequential (speedup ≥ 1.0
# — the multi-threaded path has to pay for itself; 1-core hosts get a
# waiver because helper threads only timeslice there).
echo "== shard smoke (ECGF_THREADS=4 bench/scaling --smoke) =="
scale_json="$(mktemp)"
scale_out="$(ECGF_THREADS=4 ./build/bench/scaling --smoke \
  --json-out="$scale_json")" || fail=1
echo "$scale_out"
if grep -q "shape-check: FAIL" <<<"$scale_out"; then
  echo "!! shape-check failure in shard smoke" >&2
  fail=1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$scale_json" <<'PYGATE' || { echo "!! shard smoke JSON gate failed" >&2; fail=1; }
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "ecgf-bench-scale/2", d["schema"]
cores = d["host_cores"]
cfg = d["configured_threads"]
for e in d["entries"]:
    if e["driver"] != "sharded":
        continue
    assert e["threads"] == min(e["shards"], cfg), \
        f"entry ran on {e['threads']} threads, expected {min(e['shards'], cfg)}: {e}"
    if cores >= 4 and e["shards"] == 4:
        assert e["speedup_vs_sequential"] >= 1.0, \
            f"4-shard smoke entry slower than sequential on a {cores}-core host: {e}"
print(f"shard smoke JSON gate OK ({cores} host core(s), {cfg} configured threads)")
PYGATE
else
  grep -q '"schema": "ecgf-bench-scale/2"' "$scale_json" \
    || { echo "!! shard smoke JSON missing schema marker" >&2; fail=1; }
fi
rm -f "$scale_json"

# Streaming-workload smoke: drains the 100k-cache nonstationary stream at
# the 10^6 and 10^7 request points and re-checks the identity and drift
# arms at smoke sizes. The JSON gate holds the tentpole claim: peak RSS
# must stay flat (<= 1.25x) across a 10x request range — if the stream
# engine starts buffering, this is where it shows first — and the streamed
# drivers must stay bit-identical to the materialised-trace ones.
echo "== workload smoke (bench/workload --smoke) =="
wl_json="$(mktemp)"
wl_out="$(./build/bench/workload --smoke --json-out="$wl_json")" \
  || fail=1
echo "$wl_out"
if grep -q "shape-check: FAIL" <<<"$wl_out"; then
  echo "!! shape-check failure in workload smoke" >&2
  fail=1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$wl_json" <<'PYGATE' || { echo "!! workload smoke JSON gate failed" >&2; fail=1; }
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "ecgf-bench-workload/1", d["schema"]
drain = d["drain"]
assert len(drain) >= 2, drain
first, last = drain[0]["peak_rss_bytes"], drain[-1]["peak_rss_bytes"]
assert first > 0, drain
growth = last / first
assert growth <= 1.25, \
    f"peak RSS grew {growth:.3f}x from {drain[0]['target']} to {drain[-1]['target']} requests"
ident = d["identity"]
assert ident["stream_vs_trace"], ident
assert ident["sharded_vs_sequential"], ident
drift = d["drift"]
assert drift["maintained_miss_ms"] < drift["static_miss_ms"], drift
print(f"workload smoke JSON gate OK (RSS growth {growth:.3f}x over a "
      f"{drain[-1]['target'] // drain[0]['target']}x request range)")
PYGATE
else
  grep -q '"schema": "ecgf-bench-workload/1"' "$wl_json" \
    || { echo "!! workload smoke JSON missing schema marker" >&2; fail=1; }
fi
rm -f "$wl_json"

# Perf-regression smoke: tiny sizes, equality shape-checks only (smoke
# timings are noise by design — see docs/performance.md). Fails if any
# optimised kernel disagrees with its naive reference or the JSON report
# is malformed.
echo "== perf smoke (bench/perf/perf_kernels) =="
perf_json="$(mktemp)"
perf_out="$(./build/bench/perf/perf_kernels --mode=smoke --out="$perf_json")" \
  || fail=1
echo "$perf_out"
if grep -q "shape-check: FAIL" <<<"$perf_out"; then
  echo "!! shape-check failure in perf smoke" >&2
  fail=1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$perf_json" \
    || { echo "!! perf smoke JSON does not parse" >&2; fail=1; }
else
  grep -q '"schema": "ecgf-bench-perf/1"' "$perf_json" \
    || { echo "!! perf smoke JSON missing schema marker" >&2; fail=1; }
fi
rm -f "$perf_json"

# Live-mode smoke: a real multi-process run — the coordinator plus four
# live_member OS processes rendezvous over a loopback socket, then the
# SAME binary replays the RunSpec through the sequential simulator
# (--oracle) and the two reports must compare byte for byte. This is the
# distributed-mode determinism contract (docs/live_mode.md); the python
# gate also asserts the run actually did work (requests served, group
# hits observed) so an empty-but-equal pair can't pass. Sandboxes that
# forbid loopback sockets are detected with --probe-sockets and skipped;
# ECGF_SKIP_LIVE=1 skips explicitly.
echo "== live smoke (live_coordinator + 4 live_member processes) =="
if [[ "${ECGF_SKIP_LIVE:-0}" == "1" ]]; then
  echo "== live smoke skipped (ECGF_SKIP_LIVE=1) =="
elif ! ./build/examples/live_coordinator --probe-sockets; then
  echo "== live smoke skipped (loopback sockets unavailable here) =="
else
  live_dir="$(mktemp -d)"
  # One spec for both arms — the determinism claim is only meaningful if
  # the live run and the oracle see identical parameters.
  live_spec=(--seed=606 --caches=16 --groups=4 --documents=150
             --duration-ms=6000 --rate=3 --landmarks=5 --scheme=sdsl)
  live_ok=1
  ./build/examples/live_coordinator "${live_spec[@]}" --members=4 \
    --port-file="$live_dir/port" --report-out="$live_dir/live.jsonl" \
    >"$live_dir/coordinator.log" 2>&1 &
  live_coord_pid=$!
  live_member_pids=()
  for i in 1 2 3 4; do
    ./build/examples/live_member --port-file="$live_dir/port" \
      >"$live_dir/member$i.log" 2>&1 &
    live_member_pids+=($!)
  done
  wait "$live_coord_pid" || live_ok=0
  for pid in "${live_member_pids[@]}"; do
    wait "$pid" || live_ok=0
  done
  ./build/examples/live_coordinator "${live_spec[@]}" --oracle \
    --report-out="$live_dir/oracle.jsonl" >/dev/null 2>&1 || live_ok=0
  if [[ "$live_ok" != "1" ]]; then
    echo "!! live smoke: a process exited nonzero" >&2
    sed -e 's/^/  coordinator: /' "$live_dir/coordinator.log" >&2 || true
    fail=1
  elif command -v python3 >/dev/null 2>&1; then
    python3 - "$live_dir/live.jsonl" "$live_dir/oracle.jsonl" <<'PYGATE' \
      || { echo "!! live smoke gate failed" >&2; fail=1; }
import json, sys
live_bytes = open(sys.argv[1], "rb").read()
oracle_bytes = open(sys.argv[2], "rb").read()
assert live_bytes == oracle_bytes, \
    "live report diverged from the sequential oracle"
report = json.loads(live_bytes)
assert report["requests_processed"] > 0, report
assert report["group_hits"] > 0, report
print("live smoke gate OK (report byte-identical to the oracle, "
      f"{report['requests_processed']} requests, "
      f"{report['group_hits']} group hits)")
PYGATE
  else
    cmp -s "$live_dir/live.jsonl" "$live_dir/oracle.jsonl" \
      || { echo "!! live report diverged from the oracle" >&2; fail=1; }
  fi
  rm -rf "$live_dir"
fi

# AddressSanitizer pass over one fast ctest shard: builds a separate tree
# with -DECGF_SANITIZE=address (the CMake option existed since PR 1 but
# only TSan was exercised) and runs the core memory-heavy suites. Probe
# compiler support first; skip with ECGF_SKIP_ASAN=1.
if [[ "${ECGF_SKIP_ASAN:-0}" != "1" ]]; then
  asan_probe="$(mktemp -d)"
  echo 'int main(){return 0;}' > "$asan_probe/probe.cpp"
  if c++ -fsanitize=address "$asan_probe/probe.cpp" -o "$asan_probe/probe" \
       >/dev/null 2>&1 && "$asan_probe/probe"; then
    echo "== AddressSanitizer shard (sim_test, shard_test, schemes_test, net_test, cache_test, netmodel_test, workload_test, live_test, perf_kernels_test) =="
    asan_generator=()
    if command -v ninja >/dev/null 2>&1 && [[ ! -f build-asan/CMakeCache.txt ]]; then
      asan_generator=(-G Ninja)
    fi
    cmake -B build-asan "${asan_generator[@]}" -DECGF_SANITIZE=address \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build build-asan -j"$(nproc)" --target sim_test shard_test \
      schemes_test net_test cache_test netmodel_test workload_test live_test \
      perf_kernels_test
    # gtest_discover_tests registers per-case names (not binary names), so
    # run everything discovered in this tree except the <target>_NOT_BUILT
    # placeholders of the test binaries we deliberately didn't build.
    # ECGF_THREADS=8 makes the shard suites execute their epoch windows on
    # a real worker pool, so ASan sees the parallel path, not the serial
    # fallback.
    ECGF_THREADS=8 ctest --test-dir build-asan --output-on-failure \
      -E '_NOT_BUILT$' || fail=1
  else
    echo "== AddressSanitizer unsupported by this toolchain; skipping =="
  fi
  rm -rf "$asan_probe"
fi

# ThreadSanitizer pass over the parallel layers: builds the threading test
# in a separate tree with -DECGF_SANITIZE=thread and runs the determinism
# suite under TSan. Probe compiler support first — some toolchains ship
# without the TSan runtime.
if [[ "${ECGF_SKIP_TSAN:-0}" != "1" ]]; then
  tsan_probe="$(mktemp -d)"
  trap 'rm -rf "$tsan_probe"' EXIT
  echo 'int main(){return 0;}' > "$tsan_probe/probe.cpp"
  if c++ -fsanitize=thread "$tsan_probe/probe.cpp" -o "$tsan_probe/probe" \
       >/dev/null 2>&1 && "$tsan_probe/probe"; then
    echo "== ThreadSanitizer pass (threading_test, obs_test, ctl_test, shard_test, schemes_test, netmodel_test, workload_test, live_test, perf_kernels_test) =="
    tsan_generator=()
    if command -v ninja >/dev/null 2>&1 && [[ ! -f build-tsan/CMakeCache.txt ]]; then
      tsan_generator=(-G Ninja)
    fi
    cmake -B build-tsan "${tsan_generator[@]}" -DECGF_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build build-tsan -j"$(nproc)" --target threading_test obs_test \
      ctl_test shard_test schemes_test netmodel_test workload_test live_test \
      perf_kernels_test
    ECGF_THREADS=8 ./build-tsan/tests/threading_test || fail=1
    ECGF_THREADS=8 ./build-tsan/tests/obs_test || fail=1
    ECGF_THREADS=8 ./build-tsan/tests/ctl_test || fail=1
    ECGF_THREADS=8 ./build-tsan/tests/shard_test || fail=1
    ECGF_THREADS=8 ./build-tsan/tests/schemes_test || fail=1
    ECGF_THREADS=8 ./build-tsan/tests/netmodel_test || fail=1
    ECGF_THREADS=8 ./build-tsan/tests/workload_test || fail=1
    # The live end-to-end suite runs member threads against the
    # coordinator's socket loop in-process — real concurrency for TSan.
    ECGF_THREADS=8 ./build-tsan/tests/live_test || fail=1
    # K-means restarts run on pool workers, each with its own bound buffer.
    ECGF_THREADS=8 ./build-tsan/tests/perf_kernels_test || fail=1
  else
    echo "== ThreadSanitizer unsupported by this toolchain; skipping =="
  fi
fi

exit "$fail"
