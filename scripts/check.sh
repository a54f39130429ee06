#!/usr/bin/env bash
# Full verification: lint the docs, configure and build with warnings as
# errors, run every test (the bench smokes among them), run every bench,
# and fail if any test fails or any bench exits nonzero (a bench exits
# nonzero exactly when one of its shape checks fails). Optionally re-runs
# chosen suites under AddressSanitizer and ThreadSanitizer when the
# toolchain supports them (skip with ECGF_SKIP_ASAN=1 / ECGF_SKIP_TSAN=1).
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

cmake -B build "${generator[@]}" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

# Each bench runs in a fresh scratch directory: the JSON benches write
# their default report (BENCH_*.json) to the working directory, and a check
# run must not rewrite the checked-in reports. The tree's git status must
# be the same after the loop as before it.
fail=0
root="$PWD"
tree_status() { git status --porcelain 2>/dev/null || true; }
status_before="$(tree_status)"
for b in build/bench/*; do
  # Makefiles build trees keep CMake droppings next to the binaries.
  [[ -f "$b" && -x "$b" ]] || continue
  work="$(mktemp -d)"
  (cd "$work" && "$root/$b") || { echo "!! $b exited nonzero" >&2; fail=1; }
  rm -rf "$work"
done
if [[ "$(tree_status)" != "$status_before" ]]; then
  echo "!! the bench loop changed the working tree:" >&2
  diff <(echo "$status_before") <(tree_status) | sed 's/^/   /' >&2 || true
  fail=1
fi

# The deterministic bench smokes (churn, net, bakeoff, workload, live,
# perf) ran in ctest above as BenchSmoke.*, each through the one report
# gate, bench/check_report.cmake. The sharded-engine smoke runs here
# instead, through the same gate, because its 4-shard >= 1.0x check is a
# host-timing gate: the scaling sweep at smoke sizes on a 4-thread pool.
echo "== shard smoke (ECGF_THREADS=4 bench/scaling --smoke) =="
scale_json="$(mktemp)"
ECGF_THREADS=4 cmake -DBENCH=./build/bench/scaling \
  "-DARGS=--smoke --json-out=$scale_json" -DREPORT="$scale_json" \
  -DSOURCE=bench/scaling.cpp -P bench/check_report.cmake \
  || { echo "!! shard smoke failed its report gate" >&2; fail=1; }
rm -f "$scale_json"

# Live-mode smoke: a real multi-process run — the coordinator plus four
# live_member OS processes rendezvous over a loopback socket, then the
# SAME binary replays the RunSpec through the sequential simulator
# (--oracle) and the two reports and the two event traces must compare
# byte for byte. This is the distributed-mode determinism contract
# (docs/live_mode.md); the report gate, scripts/check_live_report.cmake,
# also asserts the run actually did work (requests served, group hits
# observed) so an empty-but-equal pair can't pass. Sandboxes that forbid
# loopback sockets are detected with --probe-sockets and skipped;
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
    --trace-out="$live_dir/live.trace" >"$live_dir/coordinator.log" 2>&1 &
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
    --report-out="$live_dir/oracle.jsonl" \
    --trace-out="$live_dir/oracle.trace" >/dev/null 2>&1 || live_ok=0
  if [[ "$live_ok" != "1" ]]; then
    echo "!! live smoke: a process exited nonzero" >&2
    sed -e 's/^/  coordinator: /' "$live_dir/coordinator.log" >&2 || true
    fail=1
  else
    cmake -DLIVE="$live_dir/live.jsonl" -DORACLE="$live_dir/oracle.jsonl" \
      -P scripts/check_live_report.cmake \
      || { echo "!! live smoke gate failed" >&2; fail=1; }
  fi
  if [[ "$live_ok" == "1" ]]; then
    if [[ -s "$live_dir/live.trace" ]] &&
       cmp -s "$live_dir/live.trace" "$live_dir/oracle.trace"; then
      echo "live smoke trace OK ($(wc -l <"$live_dir/live.trace") events," \
           "byte-identical to the oracle)"
    else
      echo "!! live trace diverged from the oracle (or is empty)" >&2
      fail=1
    fi
  fi
  rm -rf "$live_dir"
fi

# AddressSanitizer pass over one fast ctest shard: builds a separate tree
# with -DECGF_SANITIZE=address and runs the core memory-heavy suites.
# ctl_test drives apply_groups through the maintenance session;
# topology_test and shortest_paths_test cover the bridge-tree kernel's
# Tarjan pass and its index-heavy per-component folds; bench_report_test
# covers the report writer every bench JSON goes through; failure_test
# drives failure barriers and message_engine_test the construction both
# engines share; fuzz_test checks the edge cache and the directory (both
# on cache::DocTable) against a reference model, consistency_test the TTL
# lookups, and summary_test the summary rebuilds from resident_docs.
# Probe compiler support first; skip with ECGF_SKIP_ASAN=1.
asan_tests=(sim_test shard_test ctl_test schemes_test net_test cache_test
            netmodel_test workload_test live_test perf_kernels_test
            differential_test topology_test shortest_paths_test
            bench_report_test failure_test message_engine_test fuzz_test
            consistency_test summary_test)
if [[ "${ECGF_SKIP_ASAN:-0}" != "1" ]]; then
  asan_probe="$(mktemp -d)"
  echo 'int main(){return 0;}' > "$asan_probe/probe.cpp"
  if c++ -fsanitize=address "$asan_probe/probe.cpp" -o "$asan_probe/probe" \
       >/dev/null 2>&1 && "$asan_probe/probe"; then
    echo "== AddressSanitizer shard (${asan_tests[*]}) =="
    asan_generator=()
    if command -v ninja >/dev/null 2>&1 && [[ ! -f build-asan/CMakeCache.txt ]]; then
      asan_generator=(-G Ninja)
    fi
    cmake -B build-asan "${asan_generator[@]}" -DECGF_SANITIZE=address \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
    # The bakeoff binary is built because the ctest run below includes the
    # BakeoffRows script test, which runs it.
    cmake --build build-asan -j"$(nproc)" --target "${asan_tests[@]}" bakeoff
    # gtest_discover_tests registers per-case names (not binary names), so
    # run everything discovered in this tree except the <target>_NOT_BUILT
    # placeholders of the test binaries we deliberately didn't build, and
    # the BenchSmoke.* bench runs, whose benches this tree does not build
    # (they ran in the main tree's ctest above).
    # ECGF_THREADS=8 makes the shard suites execute their epoch windows on
    # a real worker pool, so ASan sees the parallel path, not the serial
    # fallback.
    ECGF_THREADS=8 ctest --test-dir build-asan --output-on-failure \
      -E '_NOT_BUILT$|^BenchSmoke\.' || fail=1
  else
    echo "== AddressSanitizer unsupported by this toolchain; skipping =="
  fi
  rm -rf "$asan_probe"
fi

# ThreadSanitizer pass over the parallel layers: builds each suite in a
# separate tree with -DECGF_SANITIZE=thread and runs it on an 8-thread
# pool. live_test runs member threads against the coordinator's socket
# loop in-process; perf_kernels_test runs K-means restarts on pool
# workers, each with its own bound buffer; differential_test runs every
# driver on random worlds, sharded runs on up to 8 pool threads;
# topology_test and shortest_paths_test compute shortest-path rows on pool
# workers, each with its own thread-local heap and walk stack over one
# shared bridge-tree decomposition. Probe compiler support first — some
# toolchains ship without the TSan runtime.
tsan_tests=(threading_test obs_test ctl_test shard_test schemes_test
            netmodel_test workload_test live_test perf_kernels_test
            differential_test topology_test shortest_paths_test)
if [[ "${ECGF_SKIP_TSAN:-0}" != "1" ]]; then
  tsan_probe="$(mktemp -d)"
  trap 'rm -rf "$tsan_probe"' EXIT
  echo 'int main(){return 0;}' > "$tsan_probe/probe.cpp"
  if c++ -fsanitize=thread "$tsan_probe/probe.cpp" -o "$tsan_probe/probe" \
       >/dev/null 2>&1 && "$tsan_probe/probe"; then
    echo "== ThreadSanitizer pass (${tsan_tests[*]}) =="
    tsan_generator=()
    if command -v ninja >/dev/null 2>&1 && [[ ! -f build-tsan/CMakeCache.txt ]]; then
      tsan_generator=(-G Ninja)
    fi
    cmake -B build-tsan "${tsan_generator[@]}" -DECGF_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build build-tsan -j"$(nproc)" --target "${tsan_tests[@]}"
    for t in "${tsan_tests[@]}"; do
      ECGF_THREADS=8 "./build-tsan/tests/$t" || fail=1
    done
  else
    echo "== ThreadSanitizer unsupported by this toolchain; skipping =="
  fi
fi

exit "$fail"
