// ecgf_perfbench — one workload of the repository benchmark per process.
//
//   ecgf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--smoke] [--spans-out FILE]
//
// Builds the workload's world from the seed, then repeats complete passes
// (set-up, formation, simulation on every driver, correctness checks) until
// S seconds have elapsed, and prints one JSON object as its last stdout
// line. The first pass is a warm-up: its outputs are checked, its times
// are not reported. Untraced runs report the end-to-end metrics as medians over passes;
// traced runs alternate untraced and traced passes and report the
// per-layer metrics of the traced ones, plus the tracing overhead. Every
// pass must reproduce the first pass's report bytes, which is what shows
// the decorators leave the program's outputs untouched.
//
// `--member PORT` turns the process into a live::MemberProcess; the live
// workload spawns its members that way.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

using perfbench::Values;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Median of `key` over the passes that carry it.
double median_of(const std::vector<Values>& passes, const std::string& key) {
  std::vector<double> v;
  for (const Values& p : passes) {
    const auto it = p.find(key);
    v.push_back(it == p.end() ? 0.0 : it->second);
  }
  return median(std::move(v));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_out;
  int member_port = -1;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        a.trace = value == "1";
      } else if (flag == "--spans-out") {
        a.spans_out = value;
      } else if (flag == "--member") {
        a.member_port = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  if (a.member_port >= 0) return a.member_port > 0 && a.member_port < 65536;
  return !a.workload.empty() && have_seed && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: ecgf_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--spans-out FILE]\n";
    return 2;
  }
  if (args.member_port > 0) {
    return perfbench::run_member(static_cast<std::uint16_t>(args.member_port));
  }

  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  perfbench::Options options;
  options.seed = args.seed;
  options.smoke = args.smoke;
  options.threads = ecgf::util::configured_threads();
  options.members = std::clamp<std::size_t>(cores - 1, 1, 3);
  options.self_exe = "/proc/self/exe";
  std::cout << "# env: workload=" << args.workload << " seed=" << args.seed
            << " host_cores=" << cores << " threads=" << options.threads
            << " shards=" << options.threads << " members=" << options.members
            << " build_type=" << ECGF_BENCH_BUILD_TYPE
            << " compiler=\"" << ECGF_BENCH_COMPILER << "\""
            << " smoke=" << (args.smoke ? 1 : 0) << "\n";

  const auto started = perfbench::Clock::now();
  std::unique_ptr<perfbench::Workload> workload;
  try {
    workload = perfbench::make_workload(args.workload, options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: building " << args.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  perfbench::Checks checks;
  perfbench::SpanRecorder spans;
  std::vector<double> setup_ms;
  std::vector<double> wall_ms[2];  // [traced]
  std::vector<Values> end_to_end;  // untraced passes
  std::vector<Values> layers;      // traced passes
  std::string first_reports;
  try {
    // Pass 0 warms caches and the allocator; it is checked but not timed.
    const std::size_t min_passes = args.trace ? 5 : 4;
    for (std::size_t pass = 0;; ++pass) {
      const bool traced = args.trace && pass % 2 == 0 && pass > 0;
      if (traced) spans.begin_run(pass);
      perfbench::PassResult r = workload->pass(spans, traced, checks);
      spans.end_run();
      if (pass == 0) {
        first_reports = r.reports;
      } else {
        checks.expect(r.reports == first_reports,
                      "pass " + std::to_string(pass) + (traced ? " (traced)" : "") +
                          " reproduces the first pass's reports");
      }
      std::cout << "# pass " << pass << (traced ? " traced" : "")
                << ": wall_ms=" << r.wall_ms << " setup_ms=" << r.setup_ms;
      for (const auto& [name, value] : r.end_to_end) {
        std::cout << " " << name << "=" << value;
      }
      std::cout << "\n";
      if (pass > 0) {
        // Cheap set-ups are also sampled between passes, within 5% of the
        // pass time, so their median spans the whole run.
        double extra_ms = 0.0;
        for (int i = 0; i < 20 && extra_ms + r.setup_ms <= 0.05 * r.wall_ms;
             ++i) {
          setup_ms.push_back(workload->setup_only());
          extra_ms += setup_ms.back();
        }
        setup_ms.push_back(r.setup_ms);
        wall_ms[traced ? 1 : 0].push_back(r.wall_ms);
        if (traced) {
          layers.push_back(std::move(r.layers));
        } else {
          end_to_end.push_back(std::move(r.end_to_end));
        }
      }
      const double elapsed =
          perfbench::ms_between(started, perfbench::Clock::now()) / 1e3;
      if (pass + 1 >= min_passes && elapsed >= args.seconds) break;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!args.trace) {
    const auto add = [&](const std::string& name, double value,
                         const char* unit) {
      metrics.push_back({name, {value, unit}});
    };
    add("setup_s", median(setup_ms) / 1e3, "s");
    add("formation_s", median_of(end_to_end, "formation_s"), "s");
    add("seq_requests_per_s", median_of(end_to_end, "seq_requests_per_s"), "1/s");
    add("shard_requests_per_s", median_of(end_to_end, "shard_requests_per_s"),
        "1/s");
    add("wall_s", median(wall_ms[0]) / 1e3, "s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
    add("miss_latency_ms", median_of(end_to_end, "miss_latency_ms"), "ms");
    add("group_hit_rate", median_of(end_to_end, "group_hit_rate"), "ratio");
    add("gicost_ms", median_of(end_to_end, "gicost_ms"), "ms");
    add("formation_probes", median_of(end_to_end, "formation_probes"), "count");
  } else {
    for (const auto& [name, unit] : perfbench::layer_metrics()) {
      double value = median_of(layers, name);
      if (name == "obs.trace_overhead_s") {
        value = (median(wall_ms[1]) - median(wall_ms[0])) / 1e3;
      }
      metrics.push_back({name, {value, unit}});
    }
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      spans.write_jsonl(out);
    }
  }

  for (const auto& [name, vu] : metrics) {
    checks.expect(std::isfinite(vu.first), name + " is a finite number");
  }
  std::cout << "# passes: untraced=" << wall_ms[0].size()
            << " traced=" << wall_ms[1].size() << "\n";
  std::cout << "# reports-fnv1a: " << std::hex << fnv1a(first_reports)
            << std::dec << "\n";
  std::ostringstream line;
  line << std::setprecision(std::numeric_limits<double>::max_digits10);
  line << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.attempted()
       << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    const double value = std::isfinite(vu.first) ? vu.first : 0.0;
    line << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
         << ", \"unit\": \"" << vu.second << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return checks.failed() == 0 ? 0 : 1;
}
