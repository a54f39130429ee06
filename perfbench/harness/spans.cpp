#include "spans.h"

#include <ostream>

namespace perfbench {

namespace {

/// Small per-thread index, so concurrent callers update different
/// counters instead of contending on one cache line.
std::size_t thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace

int SpanRecorder::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_ms = ms_between(origin_, Clock::now());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run_id = run_id_;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ms =
      ms_between(origin_, Clock::now());
  // Spans nest strictly (RAII), so the closing span is the innermost one.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanRecorder::write_jsonl(std::ostream& os) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double duration = s.end_ms - s.start_ms;
    os << "{\"run_id\":" << s.run_id << ",\"id\":" << i
       << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
       << "\",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
       << ",\"self_ms\":" << duration - child_ms[i] << "}\n";
  }
}

Timed::Timed(SpanRecorder& recorder, std::string name)
    : recorder_(recorder), start_(Clock::now()) {
  if (recorder_.enabled()) index_ = recorder_.open(std::move(name));
}

double Timed::stop() {
  if (elapsed_ms_ < 0.0) {
    elapsed_ms_ = ms_between(start_, Clock::now());
    if (index_ >= 0) recorder_.close(index_);
  }
  return elapsed_ms_;
}

void CountingRttProvider::count(Clock::time_point start) const {
  Slot& slot = slots_[thread_slot() % kSlots];
  slot.lookups.fetch_add(1, std::memory_order_relaxed);
  if (timed_) {
    slot.ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count()),
        std::memory_order_relaxed);
  }
}

double CountingRttProvider::rtt_ms(ecgf::net::HostId a,
                                   ecgf::net::HostId b) const {
  const Clock::time_point start = timed_ ? Clock::now() : Clock::time_point{};
  const double rtt = inner_.rtt_ms(a, b);
  count(start);
  return rtt;
}

double CountingRttProvider::rtt_ms_at(ecgf::net::HostId a,
                                      ecgf::net::HostId b,
                                      double t_ms) const {
  const Clock::time_point start = timed_ ? Clock::now() : Clock::time_point{};
  const double rtt = inner_.rtt_ms_at(a, b, t_ms);
  count(start);
  return rtt;
}

std::uint64_t CountingRttProvider::lookups() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.lookups.load(std::memory_order_relaxed);
  }
  return total;
}

double CountingRttProvider::lookup_ms() const {
  std::uint64_t ns = 0;
  for (const Slot& slot : slots_) ns += slot.ns.load(std::memory_order_relaxed);
  return static_cast<double>(ns) / 1e6;
}

void TimedGroupHost::apply_groups(
    const std::vector<std::vector<ecgf::cache::CacheIndex>>& groups) {
  const auto t0 = Clock::now();
  inner_.apply_groups(groups);
  total_ms_ += ms_between(t0, Clock::now());
}

void TimedControlHook::on_start(ecgf::sim::GroupHost& host) {
  host_ = std::make_unique<TimedGroupHost>(host);
  inner_.on_start(*host_);
}

void TimedControlHook::on_tick(ecgf::sim::GroupHost& host, double time_ms) {
  (void)host;  // the inner hook acts through the timed wrapper instead
  const auto t0 = Clock::now();
  inner_.on_tick(*host_, time_ms);
  tick_ms_ += ms_between(t0, Clock::now());
  ++ticks_;
}

namespace {

class CountingRequestSource final : public ecgf::workload::RequestSource {
 public:
  CountingRequestSource(std::unique_ptr<ecgf::workload::RequestSource> inner,
                        PaddedCounter& counter)
      : inner_(std::move(inner)), counter_(counter) {}

  bool next(ecgf::workload::Request& out, std::uint64_t& key) override {
    if (!inner_->next(out, key)) return false;
    counter_.value.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  double peek_time_ms() const override { return inner_->peek_time_ms(); }
  std::uint64_t peek_key() const override { return inner_->peek_key(); }

 private:
  std::unique_ptr<ecgf::workload::RequestSource> inner_;
  PaddedCounter& counter_;
};

}  // namespace

std::vector<std::unique_ptr<ecgf::workload::RequestSource>>
CountingWorkloadSource::partition(std::size_t shards,
                                  const ecgf::workload::ShardOfCache& shard_of,
                                  double from_ms) {
  auto streams = inner_.partition(shards, shard_of, from_ms);
  std::vector<std::unique_ptr<ecgf::workload::RequestSource>> out;
  out.reserve(streams.size());
  for (auto& stream : streams) {
    PaddedCounter& counter = counters_.emplace_back();
    out.push_back(
        std::make_unique<CountingRequestSource>(std::move(stream), counter));
  }
  return out;
}

std::uint64_t CountingWorkloadSource::requests() const {
  std::uint64_t total = 0;
  for (const PaddedCounter& c : counters_) {
    total += c.value.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench
