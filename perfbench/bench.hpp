// Declarations shared by the benchmark driver and its self-tests.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>

#include "reliability/engine.hpp"
#include "sim/campaign.hpp"

namespace perfbench {

/// Correctness checks of one run: every check counts as attempted, and a
/// failed one (a false condition or an exception) is printed to stderr.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }

  /// Runs `body`; an exception escaping it is one failed check.
  template <typename Body>
  void Guard(const std::string& what, Body&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      Expect(false, what + ": " + e.what());
    }
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The resume phase: the last slice of a `trials`-trial campaign, cut to
/// its final two shards. A fresh start runs the first of them and stops; the
/// timed resume starts from that checkpoint and completes the last shard.
struct ResumePlan {
  std::uint64_t trials = 0;
  std::uint64_t total_shards = 0;
  pair_ecc::sim::ShardSlice slice;
  std::uint64_t first_shard = 0;   ///< slice start (fresh start runs it)
  std::uint64_t resume_shard = 0;  ///< where the resume picks up
};

inline ResumePlan PlanLastSliceResume(std::uint64_t trials) {
  ResumePlan plan;
  plan.trials = trials;
  plan.total_shards = pair_ecc::reliability::TrialEngine::ShardCount(trials);
  // Slice S-2 of S-1 covers shards [S-2, S) for every S >= 3:
  // floor((S-2) * S / (S-1)) == S-2.
  plan.slice = {plan.total_shards - 2, plan.total_shards - 1};
  plan.first_shard = plan.total_shards - 2;
  plan.resume_shard = plan.total_shards - 1;
  return plan;
}

/// Runs the driver's self-tests, one check each. `workdir` holds scratch
/// checkpoints.
void RunSelfTests(Checks& checks, const std::string& workdir);

}  // namespace perfbench
