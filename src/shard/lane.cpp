#include "shard/lane.h"

#include <algorithm>

namespace ecgf::shard {

namespace {

/// Min-heap order for std::push_heap/pop_heap (which build max-heaps):
/// canonical (time, request index), EventClass::kCompletion implied.
struct CompletionAfter {
  bool operator()(const sim::Completion& a, const sim::Completion& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.request_index > b.request_index;
  }
};

}  // namespace

double ShardLane::earliest() const {
  // Streams emit in nondecreasing time, so the peeked head is the
  // minimum; workload::kNoEvent (+inf) marks a drained stream.
  const double at = source_->peek_time_ms();
  return completions_.empty() ? at : std::min(at, completions_.front().time);
}

WindowCount ShardLane::run_window(const Cut& cut,
                                  sim::ShardableEngine& engine,
                                  ShardSink& sink) {
  WindowCount count;
  for (;;) {
    const double at = source_->peek_time_ms();
    const bool take_completion =
        !completions_.empty() && completions_.front().time <= at;
    // A drained lane reads t = +inf, past every (finite) cut.
    if (!cut.covers(take_completion ? completions_.front().time : at)) break;
    if (take_completion) {
      std::pop_heap(completions_.begin(), completions_.end(),
                    CompletionAfter{});
      const sim::Completion c = completions_.back();
      completions_.pop_back();
      sink.begin_event(c.time, sim::EventClass::kCompletion, c.request_index);
      engine.on_complete(c, sink);
    } else {
      workload::Request r;
      std::uint64_t key = 0;
      source_->next(r, key);
      sink.begin_event(r.time_ms, sim::EventClass::kArrival, key);
      add_completion(engine.on_request(key, r, r.time_ms, sink));
      ++count.arrivals;
    }
    ++count.executed;
  }
  return count;
}

void ShardLane::add_completion(const sim::Completion& c) {
  completions_.push_back(c);
  std::push_heap(completions_.begin(), completions_.end(), CompletionAfter{});
}

}  // namespace ecgf::shard
