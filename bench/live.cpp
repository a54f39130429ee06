// Live-mode bench: coordinator in-process, members as REAL forked OS
// processes on loopback, swept over member counts, against the sequential
// oracle on the same RunSpec.
//
// Reports per member count: wall time, events/sec, cuts, windows, probe
// round trips — and the determinism verdict (live report JSONL ==
// sequential oracle JSONL, byte for byte), which is the headline claim of
// live mode, not a performance number. Live mode trades latency for
// process isolation; events/sec BELOW the sequential baseline is the
// expected shape (every window and barrier pays real socket round trips),
// so the shape checks gate on identity and completion, not speedup.
//
// Writes BENCH_live.json (schema ecgf-bench-live/1). When the sandbox
// forbids loopback sockets or ECGF_SKIP_LIVE=1 is set, the bench emits a
// waiver JSON (mode "skipped" plus the reason) and exits 0; the report
// gate (bench/check_report.cmake) accepts a waiver on its reason alone.
//
// --smoke shrinks the sweep for CI; --json-out=FILE sets the output path.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "live/coordinator.h"
#include "live/member.h"
#include "live/runspec.h"
#include "live/sock.h"
#include "obs/export.h"
#include "report.h"

namespace ecgf {
namespace {

live::RunSpec bench_spec(bool smoke) {
  live::RunSpec spec;
  spec.seed = 2006;
  spec.cache_count = smoke ? 16u : 32u;
  spec.group_count = 4;
  spec.document_count = smoke ? 200u : 400u;
  spec.duration_ms = smoke ? 8'000.0 : 30'000.0;
  spec.requests_per_cache_per_s = 4.0;
  spec.num_landmarks = 5;
  spec.qualify = 1;
  return spec;
}

struct Entry {
  std::uint32_t members = 0;  ///< 0 = sequential oracle baseline
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  std::uint64_t cuts = 0;
  std::uint64_t windows = 0;
  std::uint64_t probes = 0;
  bool identical = true;
  bool members_ok = true;  ///< every member exited 0
  std::string report_jsonl;
};

/// Fork `members` child processes, each running one live::MemberProcess
/// to completion (then _exit, skipping atexit handlers — the child shares
/// this process's stdio and must not flush its buffers). The parent runs
/// the coordinator and reaps every child, recording whether all exited 0.
Entry run_live(const live::RunSpec& spec, std::uint32_t members) {
  Entry e;
  e.members = members;
  live::CoordinatorOptions options;
  options.members = members;
  live::Coordinator coordinator(spec, options);
  const std::uint16_t port = coordinator.port();

  std::vector<pid_t> children;
  children.reserve(members);
  for (std::uint32_t m = 0; m < members; ++m) {
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      int rc = 1;
      try {
        live::MemberOptions mo;
        mo.port = port;
        rc = live::MemberProcess(mo).run();
      } catch (...) {
        rc = 1;
      }
      _exit(rc);
    }
    children.push_back(pid);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const live::LiveRunResult result = coordinator.run();
  const auto t1 = std::chrono::steady_clock::now();

  for (const pid_t pid : children) {
    int status = 0;
    if (waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      e.members_ok = false;
    }
  }

  e.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  e.events = result.report.events_executed;
  e.events_per_sec =
      e.wall_ms > 0.0 ? static_cast<double>(e.events) / (e.wall_ms / 1e3)
                      : 0.0;
  e.cuts = result.cuts;
  e.windows = result.windows;
  e.probes = result.probes;
  std::ostringstream out;
  obs::write_report_jsonl(out, result.report, "live");
  e.report_jsonl = out.str();
  return e;
}

}  // namespace
}  // namespace ecgf

int main(int argc, char** argv) {
  using namespace ecgf;
  bool smoke = false;
  std::string json_out = "BENCH_live.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg.rfind("--json-out=", 0) == 0) json_out = arg.substr(11);
  }

  bench::Report report("ecgf-bench-live/1", smoke ? "smoke" : "full");
  std::string skip_reason;
  if (live::skip_live_requested()) {
    skip_reason = "ECGF_SKIP_LIVE=1";
  } else if (!live::sockets_available()) {
    skip_reason = "loopback sockets unavailable in this sandbox";
  }
  if (!skip_reason.empty()) {
    std::cout << "live bench skipped: " << skip_reason << "\n";
    report.skip(skip_reason);
    report.set("entries", bench::Json::array());
    return report.finish(json_out);
  }

  const live::RunSpec spec = bench_spec(smoke);
  const std::vector<std::uint32_t> member_counts =
      smoke ? std::vector<std::uint32_t>{1, 2, 4}
            : std::vector<std::uint32_t>{1, 2, 4, 8};

  std::cout << "Live distributed-mode bench (" << (smoke ? "smoke" : "full")
            << "): " << spec.cache_count << " caches, "
            << spec.duration_ms / 1000.0 << "s workload\n";

  // Sequential oracle baseline — also the byte-identity reference.
  const auto o0 = std::chrono::steady_clock::now();
  const live::OracleResult oracle = live::run_oracle(spec);
  const auto o1 = std::chrono::steady_clock::now();
  Entry baseline;
  baseline.members = 0;
  baseline.wall_ms =
      std::chrono::duration<double, std::milli>(o1 - o0).count();
  baseline.events = oracle.report.events_executed;
  baseline.events_per_sec =
      baseline.wall_ms > 0.0
          ? static_cast<double>(baseline.events) / (baseline.wall_ms / 1e3)
          : 0.0;
  {
    std::ostringstream out;
    obs::write_report_jsonl(out, oracle.report, "live");
    baseline.report_jsonl = out.str();
  }

  std::vector<Entry> entries;
  entries.push_back(baseline);
  bool all_identical = true;
  bool members_ok = true;
  for (const std::uint32_t members : member_counts) {
    Entry e = run_live(spec, members);
    e.identical = e.report_jsonl == baseline.report_jsonl;
    all_identical = all_identical && e.identical;
    members_ok = members_ok && e.members_ok;
    std::cout << "  members=" << members << ": " << e.wall_ms << " ms, "
              << e.events << " events, " << e.cuts << " cuts, " << e.windows
              << " windows, " << e.probes << " probes, report "
              << (e.identical ? "IDENTICAL" : "DIVERGED") << "\n";
    entries.push_back(std::move(e));
  }

  report.check("every live member count reproduces the sequential oracle's "
               "report byte-for-byte",
               all_identical);
  report.check("all member processes exited cleanly across the sweep",
               members_ok);

  report.set("caches", spec.cache_count);
  report.set("duration_ms", spec.duration_ms);
  bench::Json entries_json = bench::Json::array();
  for (const Entry& e : entries) {
    entries_json.push(bench::Json::object()
                          .set("driver", e.members == 0 ? "sequential" : "live")
                          .set("members", e.members)
                          .set("wall_ms", e.wall_ms)
                          .set("events", e.events)
                          .set("events_per_sec", e.events_per_sec)
                          .set("cuts", e.cuts)
                          .set("windows", e.windows)
                          .set("probes", e.probes)
                          .set("report_identical", e.identical));
  }
  report.set("entries", entries_json);
  return report.finish(json_out);
}
