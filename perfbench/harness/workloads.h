// The benchmark's workloads. Each builds its world from the seed alone and
// runs one complete pass per call: set-up, formation, simulation on every
// driver it exercises, and the correctness checks on the outputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

using Values = std::map<std::string, double>;

/// Correctness checks are the benchmark's operations: every check is
/// attempted once and either passes or fails the run.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Options {
  std::uint64_t seed = 1;
  bool smoke = false;        ///< tiny sizes, for the self-test
  std::size_t threads = 1;   ///< shards = threads for the sharded driver
  std::size_t members = 1;   ///< live member processes
  std::string self_exe;      ///< this binary, re-run in member mode
};

struct PassResult {
  double setup_ms = 0.0;  ///< building the world
  double wall_ms = 0.0;   ///< the whole pass, set-up included
  Values end_to_end;      ///< throughputs, formation time, model outputs
  Values layers;          ///< per-layer values (traced passes only)
  std::string reports;    ///< report JSONL of every run in the pass
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build (and drop) the worlds of one pass; returns the time in ms.
  virtual double setup_only() = 0;
  /// One complete pass. When `traced`, the recorder is on, decorators
  /// wrap the seams and profile scopes are enabled.
  virtual PassResult pass(SpanRecorder& spans, bool traced,
                          Checks& checks) = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options);

/// Every per-layer metric name the traced run reports, with its unit.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Entry point of a live member process (`--member PORT`).
int run_member(std::uint16_t port);

}  // namespace perfbench
