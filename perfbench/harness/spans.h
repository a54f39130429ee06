// Benchmark-side instrumentation: a span recorder and forwarding
// decorators over the library's public seams.
//
// Everything here lives outside src/ and observes the program only through
// its public interfaces. Spans are opened around calls the benchmark makes
// into a layer; the decorators forward every call unchanged to the object
// they wrap and count (and, when asked, time) what passes through, so a
// traced pass produces the same reports as an untraced one.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "net/rtt_provider.h"
#include "sim/control.h"
#include "workload/stream.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One recorded interval. `parent` indexes the enclosing span (-1 = root);
/// all spans of one traced pass share `run_id`.
struct Span {
  std::string name;
  double start_ms = 0.0;  ///< since the recorder's origin
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t run_id = 0;
};

/// In-memory span log of one process. Single-threaded: spans are opened
/// only from the benchmark's driver thread, never from decorator callbacks
/// that may run on shard workers.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Recording is on only for traced passes; run_id tags their spans.
  void begin_run(std::uint64_t run_id) {
    run_id_ = run_id;
    enabled_ = true;
  }
  void end_run() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  int open(std::string name);
  void close(int index);

  /// One JSON object per span, plus its self time (duration minus the
  /// part covered by its direct children).
  void write_jsonl(std::ostream& os) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t run_id_ = 0;
  bool enabled_ = false;
};

/// Times a block; records it as a span when the recorder is enabled.
/// stop() may be called once to read the elapsed time early.
class Timed {
 public:
  Timed(SpanRecorder& recorder, std::string name);
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double stop();  ///< elapsed ms (idempotent)

 private:
  SpanRecorder& recorder_;
  Clock::time_point start_;
  int index_ = -1;
  double elapsed_ms_ = -1.0;
};

/// Counter on its own cache line, so shard workers bumping neighbouring
/// counters do not share lines.
struct alignas(64) PaddedCounter {
  std::atomic<std::uint64_t> value{0};
};

/// Forwarding net::RttProvider: counts every lookup and, when `timed`,
/// accumulates the time spent inside the wrapped provider. Safe to call
/// from shard workers: each thread bumps its own slot.
class CountingRttProvider final : public ecgf::net::RttProvider {
 public:
  CountingRttProvider(const ecgf::net::RttProvider& inner, bool timed)
      : inner_(inner), timed_(timed) {}

  std::size_t host_count() const override { return inner_.host_count(); }
  double rtt_ms(ecgf::net::HostId a, ecgf::net::HostId b) const override;
  double rtt_ms_at(ecgf::net::HostId a, ecgf::net::HostId b,
                   double t_ms) const override;

  std::uint64_t lookups() const;
  double lookup_ms() const;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> ns{0};
  };
  static constexpr std::size_t kSlots = 16;

  void count(Clock::time_point start) const;

  const ecgf::net::RttProvider& inner_;
  bool timed_;
  mutable std::array<Slot, kSlots> slots_;
};

/// Forwarding sim::GroupHost: times apply_groups().
class TimedGroupHost final : public ecgf::sim::GroupHost {
 public:
  explicit TimedGroupHost(ecgf::sim::GroupHost& inner) : inner_(inner) {}

  std::size_t cache_count() const override { return inner_.cache_count(); }
  bool is_departed(ecgf::cache::CacheIndex cache) const override {
    return inner_.is_departed(cache);
  }
  const std::vector<std::vector<ecgf::cache::CacheIndex>>& groups()
      const override {
    return inner_.groups();
  }
  void apply_groups(const std::vector<std::vector<ecgf::cache::CacheIndex>>&
                        groups) override;

  double total_ms() const { return total_ms_; }

 private:
  ecgf::sim::GroupHost& inner_;
  double total_ms_ = 0.0;
};

/// Forwarding sim::ControlHook: hands the wrapped hook a TimedGroupHost in
/// place of the simulator, times ticks and counts RTT samples.
class TimedControlHook final : public ecgf::sim::ControlHook {
 public:
  explicit TimedControlHook(ecgf::sim::ControlHook& inner) : inner_(inner) {}

  void on_start(ecgf::sim::GroupHost& host) override;
  void on_rtt_sample(ecgf::net::HostId src, ecgf::net::HostId dst,
                     double rtt_ms, double time_ms) override {
    ++rtt_samples_;
    inner_.on_rtt_sample(src, dst, rtt_ms, time_ms);
  }
  void on_leave(ecgf::cache::CacheIndex cache, double time_ms) override {
    inner_.on_leave(cache, time_ms);
  }
  void on_join(ecgf::cache::CacheIndex cache, std::uint32_t group,
               double time_ms) override {
    inner_.on_join(cache, group, time_ms);
  }
  void on_tick(ecgf::sim::GroupHost& host, double time_ms) override;

  std::uint64_t ticks() const { return ticks_; }
  double tick_ms() const { return tick_ms_; }
  std::uint64_t rtt_samples() const { return rtt_samples_; }
  /// The host wrapper handed to the inner hook (null before on_start).
  const TimedGroupHost* host() const { return host_.get(); }

 private:
  ecgf::sim::ControlHook& inner_;
  std::unique_ptr<TimedGroupHost> host_;
  std::uint64_t ticks_ = 0;
  double tick_ms_ = 0.0;
  std::uint64_t rtt_samples_ = 0;
};

/// Forwarding workload::WorkloadSource: every stream it hands out counts
/// the requests pulled through it. Streams of one partition() call may be
/// pulled concurrently; each owns its own counter.
class CountingWorkloadSource final : public ecgf::workload::WorkloadSource {
 public:
  explicit CountingWorkloadSource(ecgf::workload::WorkloadSource& inner)
      : inner_(inner) {}

  double duration_ms() const override { return inner_.duration_ms(); }
  std::size_t cache_count() const override { return inner_.cache_count(); }
  const std::vector<ecgf::workload::Update>& updates() const override {
    return inner_.updates();
  }
  std::vector<std::unique_ptr<ecgf::workload::RequestSource>> partition(
      std::size_t shards, const ecgf::workload::ShardOfCache& shard_of,
      double from_ms) override;

  std::uint64_t requests() const;

 private:
  ecgf::workload::WorkloadSource& inner_;
  std::deque<PaddedCounter> counters_;  ///< stable addresses
};

}  // namespace perfbench
