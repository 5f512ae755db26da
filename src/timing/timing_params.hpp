// DDR4-class timing parameters and the mapping from an ECC scheme's
// PerfDescriptor onto command-level costs.
//
// All values are in memory-clock cycles (tCK). The defaults model a
// DDR4-3200-class part (1600 MHz clock, tCK = 0.625 ns); absolute values
// matter less than the ratios, since every benchmark reports performance
// normalised to the No-ECC baseline on the same parameters.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "ecc/scheme.hpp"

#include "util/contract.hpp"

namespace pair_ecc::timing {

struct TimingParams {
  double tck_ns = 0.625;  ///< clock period (DDR4-3200: 1600 MHz)

  unsigned tRCD = 22;   ///< ACT -> RD/WR
  unsigned tRP = 22;    ///< PRE -> ACT
  unsigned tCL = 22;    ///< RD -> first data
  unsigned tCWL = 16;   ///< WR -> first data
  unsigned tRAS = 52;   ///< ACT -> PRE
  unsigned tRC = 74;    ///< ACT -> ACT, same bank
  unsigned tBL = 4;     ///< burst transfer time (BL8 on a DDR bus)
  unsigned tCCD_S = 4;  ///< CAS -> CAS, different bank group
  unsigned tCCD_L = 8;  ///< CAS -> CAS, same bank group
  unsigned tRRD_S = 4;  ///< ACT -> ACT, different bank group
  unsigned tRRD_L = 8;  ///< ACT -> ACT, same bank group
  unsigned tFAW = 34;   ///< four-activate window
  unsigned tWR = 24;    ///< write recovery (end of write data -> PRE)
  unsigned tWTR = 12;   ///< end of write data -> next RD command
  unsigned tRTP = 12;   ///< RD -> PRE
  unsigned tRTW_gap = 2;///< bus turnaround bubble between RD and WR bursts

  // Refresh: one all-bank REF every tREFI; the rank is dead for tRFC.
  // (7.8 us and 350 ns at tCK = 0.625 ns.) Multi-rank channels stagger
  // their refreshes across the tREFI window.
  bool enable_refresh = true;
  unsigned tREFI = 12480;
  unsigned tRFC = 560;

  unsigned ranks = 1;   ///< ranks sharing this channel's command/data bus
  unsigned tCS = 2;     ///< data-bus gap when consecutive bursts switch rank

  unsigned banks = 16;  ///< banks per rank
  unsigned bank_groups = 4;

  // Refresh management (PRAC-style): an RFM command holds its bank for
  // tRFM; the PRAC policy arms one after rfm_threshold activations of
  // a bank (at least 2, see the Controller constructor). Only consulted when
  // SchedulerKind::kPrac is selected.
  unsigned tRFM = 560;
  unsigned rfm_threshold = 32;

  static TimingParams Ddr4_3200() { return {}; }

  /// Worst-case cycles one rank's REF drain holds the channel (MaxRanks).
  std::uint64_t RefreshDrain() const {
    return std::uint64_t{std::max(tRAS, tCWL + tBL + tWR)} + banks;
  }

  /// The most ranks refresh leaves room for, i.e. the largest `ranks` with
  /// tRFC + ranks * RefreshDrain() + tRCD < tREFI (needs banks != 0).
  ///
  /// Refresh must leave every rank room for one ACT and its CAS, or
  /// Controller::Run never returns. A rank's REF falls due every tREFI but
  /// issues only once the rank's open banks have precharged: up to the
  /// longer of tRAS after an ACT and a write's recovery (tCWL + tBL + tWR)
  /// after its CAS, then one PRE per bank per cycle. While any rank
  /// drains, the whole channel issues nothing else, so each rank's drain
  /// counts once against every tREFI. After its REF the rank takes no ACT
  /// for tRFC. Without tRCD to spare after all that, the next drain closes
  /// every row its ACT opened before the CAS can issue.
  unsigned MaxRanks() const {
    constexpr std::uint64_t kAny = std::numeric_limits<unsigned>::max();
    if (!enable_refresh) return kAny;
    const std::uint64_t fixed = std::uint64_t{tRFC} + tRCD;
    if (fixed >= tREFI) return 0;
    return static_cast<unsigned>(
        std::min(kAny, (tREFI - fixed - 1) / RefreshDrain()));
  }

  void Validate() const {
    PAIR_CHECK(!(banks == 0 || bank_groups == 0 || banks % bank_groups != 0), "TimingParams: bad bank/group shape");
    PAIR_CHECK(ranks != 0, "TimingParams: need at least one rank");
    PAIR_CHECK(tck_ns > 0.0, "TimingParams: bad clock period");
    PAIR_CHECK(ranks <= MaxRanks(),
               "TimingParams: refresh leaves no room for a CAS: need tRFC + "
               "ranks * (max(tRAS, tCWL + tBL + tWR) + banks) + tRCD < tREFI"
               " (" << tRFC << " + " << ranks << " * " << RefreshDrain()
                    << " + " << tRCD << " >= " << tREFI << ")");
  }
};

/// Command-level costs of an ECC scheme, derived from its PerfDescriptor.
struct SchemeTiming {
  unsigned read_burst = 4;    ///< data-bus occupancy of a read, cycles
  unsigned write_burst = 4;
  unsigned rmw_penalty = 0;   ///< extra bank busy per write (internal RMW)
  unsigned read_decode = 0;   ///< added to read completion (decode latency)
  unsigned write_encode = 0;  ///< added before write data (encode latency)

  /// Burst extension: each extra beat is half a clock on a DDR bus, rounded
  /// up. The internal RMW is an internal column READ of the covering
  /// codeword plus the WRITE-back — two internal column cycles, modelled as
  /// 2 * tCCD_L added to the bank's post-write occupancy (assumption
  /// [A-perf] in DESIGN.md). Decode/encode nanoseconds round up to cycles.
  static SchemeTiming FromPerf(const ecc::PerfDescriptor& perf,
                               const TimingParams& t) {
    SchemeTiming s;
    s.read_burst = t.tBL + (perf.extra_read_beats + 1) / 2;
    s.write_burst = t.tBL + (perf.extra_write_beats + 1) / 2;
    s.rmw_penalty = perf.write_rmw ? 2 * t.tCCD_L : 0;
    s.read_decode =
        static_cast<unsigned>(std::ceil(perf.read_decode_ns / t.tck_ns));
    s.write_encode =
        static_cast<unsigned>(std::ceil(perf.write_encode_ns / t.tck_ns));
    return s;
  }
};

}  // namespace pair_ecc::timing
