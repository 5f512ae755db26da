#include "sim/splitting.hpp"

#include <vector>

#include "reliability/outcome.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace pair_ecc::sim {

namespace {

/// Watches one node's demand-read stream: advances the level function,
/// replays inherited crossings by reseeding the RNG in place, and aborts
/// at the node's own frontier.
class TreeObserver final : public DemandReadObserver {
 public:
  TreeObserver(const reliability::SplitSpec& split,
               const std::vector<std::uint64_t>& seeds)
      : split_(split), seeds_(seeds) {}

  bool OnDemandRead(reliability::Outcome outcome,
                    util::Xoshiro256& rng) override {
    if (outcome == reliability::Outcome::kNoError) return true;
    ++level_;
    any_sdc_ |= reliability::IsSdc(outcome);
    any_due_ |= outcome == reliability::Outcome::kDue;
    // Thresholds are strictly increasing and the level advances by one per
    // non-clean read, so at most one threshold is crossed here.
    if (next_crossing_ < split_.thresholds.size() &&
        level_ >= split_.thresholds[next_crossing_]) {
      const std::size_t k = next_crossing_++;
      if (k + 1 < seeds_.size()) {
        // Inherited crossing: diverge from the ancestors exactly where
        // they split, onto this node's own tail seed.
        rng = util::Xoshiro256(seeds_[k + 1]);
      } else {
        crossed_frontier_ = true;
        return false;
      }
    }
    return true;
  }

  bool crossed_frontier() const noexcept { return crossed_frontier_; }
  bool any_sdc() const noexcept { return any_sdc_; }
  bool any_due() const noexcept { return any_due_; }

 private:
  const reliability::SplitSpec& split_;
  const std::vector<std::uint64_t>& seeds_;
  std::uint64_t level_ = 0;
  std::size_t next_crossing_ = 0;
  bool crossed_frontier_ = false;
  bool any_sdc_ = false;
  bool any_due_ = false;
};

void RunNode(const SystemConfig& config, const reliability::WorkingSet& ws,
             timing::RequestSource& demand,
             const reliability::SplitSpec& split,
             std::vector<std::uint64_t>& seeds,
             reliability::SplitTreeCounts& tree) {
  const std::size_t depth = seeds.size() - 1;
  util::Xoshiro256 rng(seeds.front());
  TreeObserver observer(split, seeds);
  SystemStats scratch_stats;
  reliability::TrialTelemetry scratch_tel;
  MemorySystem system(config, ws, demand, rng);
  system.Run(scratch_stats, scratch_tel, &observer);
  ++tree.nodes;

  if (observer.crossed_frontier()) {
    ++tree.splits;
    const std::uint64_t parent_seed = seeds.back();
    for (unsigned j = 0; j < split.replicas; ++j) {
      seeds.push_back(util::SplitMix64::At(parent_seed, j));
      RunNode(config, ws, demand, split, seeds, tree);
      seeds.pop_back();
    }
  } else {
    const bool failed = observer.any_sdc() || observer.any_due();
    ++tree.leaves[depth];
    tree.failures[depth] += failed;
    tree.sdc[depth] += observer.any_sdc();
    tree.due[depth] += observer.any_due();
  }
}

}  // namespace

void RunSplitTrial(const SystemConfig& config,
                   const reliability::WorkingSet& ws,
                   timing::RequestSource& demand,
                   const reliability::SplitSpec& split,
                   std::uint64_t root_seed, reliability::SplitTally& tally) {
  PAIR_CHECK(split.Active(), "RunSplitTrial requires an active split spec");
  const std::size_t depths = split.Depths();
  reliability::SplitTreeCounts tree;
  tree.leaves.resize(depths);
  tree.failures.resize(depths);
  tree.sdc.resize(depths);
  tree.due.resize(depths);

  std::vector<std::uint64_t> seeds;
  seeds.reserve(depths);
  seeds.push_back(root_seed);
  RunNode(config, ws, demand, split, seeds, tree);
  tally.RecordRootTrial(tree);
}

}  // namespace pair_ecc::sim
