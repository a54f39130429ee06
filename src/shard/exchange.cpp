#include "shard/exchange.h"

#include <cstddef>
#include <limits>

#include "obs/profile.h"

namespace ecgf::shard {

std::size_t total_buffered_effects(const std::vector<ShardSink>& sinks) {
  std::size_t total = 0;
  for (const ShardSink& sink : sinks) total += sink.effects().size();
  return total;
}

void merge_and_replay(std::vector<ShardSink>& sinks, sim::EffectSink& target,
                      MergeScratch& scratch) {
  ECGF_PROF_SCOPE("shard.merge");
  // Classic k-way merge over already-sorted buffers. Shard counts are
  // small (≤ dozens), so a linear scan for the minimum head beats heap
  // bookkeeping.
  std::vector<std::size_t>& pos = scratch.pos;
  pos.assign(sinks.size(), 0);
  for (;;) {
    std::size_t best = sinks.size();
    for (std::size_t s = 0; s < sinks.size(); ++s) {
      if (pos[s] >= sinks[s].effects().size()) continue;
      if (best == sinks.size() ||
          sinks[s].effects()[pos[s]].key < sinks[best].effects()[pos[best]].key) {
        best = s;
      }
    }
    if (best == sinks.size()) break;
    const BufferedEffect& e = sinks[best].effects()[pos[best]++];
    switch (e.kind) {
      case BufferedEffect::Kind::kTrace:
        target.emit(e.trace);
        break;
      case BufferedEffect::Kind::kMetric:
        target.record(e.cache, e.value_ms, e.how, e.at_ms);
        break;
      case BufferedEffect::Kind::kRttSample:
        target.rtt_sample(e.src, e.dst, e.value_ms, e.at_ms);
        break;
    }
  }
  for (auto& sink : sinks) sink.clear();
}

void merge_and_replay(std::vector<ShardSink>& sinks, sim::EffectSink& target) {
  MergeScratch scratch;
  merge_and_replay(sinks, target, scratch);
}

}  // namespace ecgf::shard
