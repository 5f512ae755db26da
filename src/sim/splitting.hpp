// Multilevel splitting over MemorySystem trials.
//
// MemorySystem state is not cloneable mid-trial (the scheme borrows the
// rank, the RNG is a caller-owned stream), so splitting works by
// *deterministic re-simulation*: a tree node at depth d is identified by
// its seed vector (s_0 .. s_d). Replaying from Xoshiro256(s_0), the node
// reproduces its ancestors' trajectory exactly; at the read where the
// level function (cumulative non-clean demand reads) first crosses
// threshold k < d, the RNG is reseeded in place to Xoshiro256(s_{k+1}) —
// the exact point where that ancestor split, so siblings share history up
// to the crossing and diverge after it. A node that crosses its own
// frontier thresholds[d] aborts (functional pass only, no timing) and
// spawns `replicas` children with fresh tail seeds derived via
// SplitMix64::At; a node that completes without crossing is a leaf with
// weight replicas^-d. Leaf statistics fold into the exact-integer
// reliability::SplitTally, so shard merge keeps the engine's bitwise
// determinism contract.
#pragma once

#include <cstdint>

#include "reliability/variance_reduction.hpp"
#include "sim/memory_system.hpp"

namespace pair_ecc::sim {

/// Runs one splitting tree rooted at `root_seed` (one engine trial) and
/// records its leaf statistics into `tally`. Deterministic in
/// (config, demand, split, root_seed). Every node re-streams `demand` from
/// its start; `config.horizon_cycles` must be resolved (ScanDemand).
void RunSplitTrial(const SystemConfig& config,
                   const reliability::WorkingSet& ws,
                   timing::RequestSource& demand,
                   const reliability::SplitSpec& split,
                   std::uint64_t root_seed, reliability::SplitTally& tally);

}  // namespace pair_ecc::sim
