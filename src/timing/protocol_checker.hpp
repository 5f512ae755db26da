// Independent DRAM-protocol checker.
//
// The controller reports every command it issues; the checker re-derives
// the legality of each from first principles (its own bookkeeping, not the
// controller's) and records violations as human-readable strings. Tests
// assert the violation list is empty after every simulation, so a
// scheduling bug fails loudly instead of silently skewing benchmark
// numbers.
//
// Multi-rank rules: bank timing (tRC/tRCD/tRAS/...), tFAW/tRRD, CAS-to-CAS
// and write-to-read windows are tracked per rank; the data bus is shared,
// with a tCS switch gap whenever consecutive bursts come from different
// ranks. Refresh is per rank.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "timing/timing_params.hpp"

namespace pair_ecc::timing {

enum class Cmd : std::uint8_t { kAct, kPre, kRead, kWrite, kRef, kRfm };

std::string ToString(Cmd cmd);

class ProtocolChecker {
 public:
  explicit ProtocolChecker(const TimingParams& params);

  /// Reports a command issued at `cycle`. For RD/WR, `data_start` /
  /// `data_end` give the data-bus interval occupied by the burst. For kRef
  /// only `rank` is meaningful.
  void OnCommand(Cmd cmd, unsigned rank, unsigned bank, unsigned row,
                 std::uint64_t cycle, std::uint64_t data_start = 0,
                 std::uint64_t data_end = 0);

  const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  std::uint64_t commands_checked() const noexcept { return commands_; }

 private:
  /// Records a violation of `rule` unless `ok`. Takes the rule as a
  /// literal and formats only on failure: a legal command stream through
  /// OnCommand allocates nothing.
  void Expect(bool ok, Cmd cmd, unsigned rank, unsigned bank,
              std::uint64_t cycle, const char* rule);
  unsigned GroupOf(unsigned bank) const { return bank % params_.bank_groups; }

  struct BankTrack {
    bool open = false;
    unsigned row = 0;
    std::uint64_t last_act = 0;
    bool has_act = false;
    std::uint64_t last_pre = 0;
    bool has_pre = false;
    std::uint64_t last_rd = 0;
    bool has_rd = false;
    std::uint64_t last_wr_data_end = 0;
    bool has_wr = false;
    std::uint64_t last_rfm = 0;
    bool has_rfm = false;
  };

  struct RankTrack {
    std::vector<BankTrack> banks;
    // The last four ACT cycles, a ring indexed by act_count % 4 (tFAW).
    std::array<std::uint64_t, 4> recent_acts{};
    std::uint64_t act_count = 0;
    std::vector<std::uint64_t> last_act_group;
    std::vector<bool> has_act_group;
    std::uint64_t last_act_any = 0;
    bool has_act_any = false;
    std::uint64_t last_cas = 0;
    unsigned last_cas_group = 0;
    bool has_cas = false;
    std::uint64_t last_wr_data_end = 0;
    bool has_wr = false;
    std::uint64_t last_ref = 0;
    bool has_ref = false;
  };

  TimingParams params_;
  std::vector<RankTrack> ranks_;
  std::uint64_t bus_busy_until_ = 0;
  unsigned last_burst_rank_ = 0;
  bool has_burst_ = false;
  std::uint64_t commands_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace pair_ecc::timing
