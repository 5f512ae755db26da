// Cycle-approximate memory-channel controller with three scheduling
// policies (FR-FCFS, strict FCFS, PRAC-style refresh management; see
// timing/scheduler.hpp), each plain controller state: a reorder window
// and, under PRAC, per-bank activation counts. It models open- or
// closed-page row management, auto-refresh, and one or more ranks sharing
// the command/data bus.
//
// The controller issues at most one command per cycle (shared command bus)
// and models per-rank bank timing, the four-activate window, CAS-to-CAS,
// bus-turnaround and rank-switch constraints, and the per-scheme overheads
// from SchemeTiming: longer data bursts (DUO), internal read-modify-write
// bank occupancy on writes (conventional IECC, XED, PAIR's rmw ablation),
// and decode/encode latencies. Every command is mirrored into a
// ProtocolChecker so scheduling bugs surface as test failures.
//
// Event-driven: each timing rule is written once, as the earliest cycle a
// command may issue (EarliestCas over its rank's CasFloor, EarliestAct, a
// bank's ready_pre). The queue is the reorder window, its first `window`
// requests in arrival order held contiguously, and a backlog behind it. A
// decision scans the window once and evaluates each (rank, bank,
// direction)'s CAS time and each closed bank's ACT time at most once.
// When it issues nothing, the controller jumps straight to the earliest
// of the next refresh due, every earliest-issue cycle the scan computed
// and, unless the window is full, the next arrival: an arrival behind a
// full window cannot change the decision, so it is admitted (and its row
// locality classified) at the next wake. An idle scan also carries its
// pick forward, the oldest row hit with the smallest CAS time: once cycle
// reaches that time with no command issued since, that request is the
// pick without a scan, since every older hit has a later CAS time and
// arrivals only append. This is exact, not an approximation: while no
// command issues the controller's state is frozen and every legality test
// has the form `cycle >= t`, so no skipped cycle could have issued a
// command, and an arrival is classified against the same bank state it
// would have seen cycle by cycle. Stamps, SimStats, the completion-hook
// order and the command stream equal those of a cycle-stepped loop.
//
// Requests are consumed through the pull-based RequestSource interface, so
// the controller runs in memory proportional to its queue, not the trace:
// multi-GB streaming traces and procedural generators feed it directly.
// The legacy whole-trace Run(Trace&) overload is a thin adapter over the
// streaming form.
//
// A Controller simulates one stream: Run starts from the state the
// constructor built (closed banks, zero ready times, zero PRAC counts, a
// fresh checker) and leaves it behind, so a second Run throws
// util::ContractViolation. Construct one Controller per run.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "timing/protocol_checker.hpp"
#include "timing/request.hpp"
#include "timing/request_source.hpp"
#include "timing/scheduler.hpp"
#include "timing/timing_params.hpp"

namespace pair_ecc::timing {

struct SimStats {
  std::uint64_t cycles = 0;      ///< cycle the last request completed
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double avg_read_latency = 0.0; ///< cycles, arrival -> data+decode
  double p99_read_latency = 0.0;
  double bus_utilization = 0.0;  ///< busy data-bus cycles / total cycles
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;   ///< bank closed, ACT needed
  std::uint64_t row_conflicts = 0;///< wrong row open, PRE+ACT needed
  std::uint64_t refreshes = 0;    ///< all-bank REF commands issued
  std::uint64_t rfm_commands = 0; ///< PRAC refresh-management commands

  /// Data bandwidth in bytes per cycle (64-byte lines).
  double BytesPerCycle() const {
    return cycles == 0
               ? 0.0
               : 64.0 * static_cast<double>(reads + writes) /
                     static_cast<double>(cycles);
  }
};

/// Row-buffer management policy.
enum class PagePolicy : std::uint8_t {
  kOpen,    ///< leave rows open, bet on locality (default)
  kClosed,  ///< precharge as soon as no queued request hits the open row
};

class Controller {
 public:
  /// Observes each request as its CAS issues, with issue/complete stamps
  /// filled in. The second argument is the request's admission index
  /// (position in the source's stream, 0-based).
  using CompletionHook = std::function<void(const Request&, std::uint64_t)>;

  /// `window`: how many queued requests FR-FCFS considers for reordering
  /// (0 means 1; kFcfs always uses 1). kPrac needs
  /// params.rfm_threshold >= 2.
  Controller(const TimingParams& params, const SchemeTiming& scheme,
             unsigned window = 16, PagePolicy policy = PagePolicy::kOpen,
             SchedulerKind scheduler = SchedulerKind::kFrFcfs);

  /// Simulates the trace (must be sorted by arrival cycle) to completion.
  /// Fills each request's issue/complete stamps in place. Requests with
  /// rank >= params.ranks are rejected with std::invalid_argument. Call
  /// at most once per Controller (either overload).
  SimStats Run(Trace& trace);

  /// Streaming form: pulls requests from `source` (non-decreasing
  /// arrivals) and simulates to completion in memory proportional to the
  /// controller queue. `on_complete` (may be empty) observes every request
  /// at CAS issue. With `track_latency_percentiles` false the per-read
  /// latency vector is not kept — p99_read_latency reports 0 and memory
  /// stays bounded for arbitrarily long streams. Call at most once per
  /// Controller.
  SimStats Run(RequestSource& source, const CompletionHook& on_complete = {},
               bool track_latency_percentiles = true);

  const ProtocolChecker& checker() const noexcept { return checker_; }

 private:
  struct BankState {
    bool open = false;
    unsigned row = 0;
    std::uint64_t ready_act = 0;
    std::uint64_t ready_cas = 0;
    std::uint64_t ready_pre = 0;
    bool had_cas = false;  ///< a CAS hit this activation (closed-page)
  };

  struct RankState {
    std::vector<BankState> banks;
    /// The last four ACT cycles, a ring indexed by act_count % 4 (tFAW).
    std::array<std::uint64_t, 4> recent_acts{};
    std::uint64_t act_count = 0;
    std::vector<std::uint64_t> ready_act_group;
    std::uint64_t ready_act_any = 0;
    std::vector<std::uint64_t> ready_cas_group;
    std::uint64_t ready_read_cmd = 0;  ///< earliest RD after write (tWTR)
    std::uint64_t next_refresh = 0;
  };

  /// A queued request plus its admission index (for the completion hook).
  struct Pending {
    Request req;
    std::uint64_t index;
  };

  unsigned GroupOf(unsigned bank) const { return group_of_[bank]; }

  /// The rank-wide terms of a CAS's earliest issue cycle: data-bus ready
  /// (with the rank switch), tWTR before a read, the read-to-write
  /// turnaround before a write.
  std::uint64_t CasFloor(unsigned rank, Op op) const;
  /// Earliest cycle the CAS of `req` may issue, given its rank's
  /// CasFloor(req.rank, req.op); `req` must hit its bank's open row.
  std::uint64_t EarliestCas(const Request& req, std::uint64_t floor) const;
  void IssueCas(Request& req, std::uint64_t cycle);
  /// Earliest cycle an ACT to the (closed) bank may issue.
  std::uint64_t EarliestAct(unsigned rank, unsigned bank) const;
  void IssueAct(unsigned rank, unsigned bank, unsigned row,
                std::uint64_t cycle);
  void IssuePre(unsigned rank, unsigned bank, std::uint64_t cycle);
  /// Earliest legal start of a data burst from `rank` given bus state.
  std::uint64_t BusReadyFor(unsigned rank) const;
  /// Earliest refresh that falls due after `cycle` (never, refresh off).
  std::uint64_t RefreshDueAfter(std::uint64_t cycle) const;

  TimingParams params_;
  SchemeTiming scheme_;
  std::vector<unsigned> group_of_;  ///< bank -> bank group
  unsigned window_;  ///< effective reorder window: 1 under kFcfs
  PagePolicy policy_;
  ProtocolChecker checker_;

  // PRAC state, empty unless kPrac. act_counts_[rank * banks + bank] counts
  // the bank's ACTs since its last RFM was armed; rfm_due_ lists the banks
  // (same index) whose count crossed the threshold, in crossing order.
  std::vector<std::uint32_t> act_counts_;
  std::deque<unsigned> rfm_due_;

  std::vector<RankState> ranks_;
  std::uint64_t bus_free_ = 0;
  unsigned last_burst_rank_ = 0;
  bool has_burst_ = false;
  std::uint64_t last_rd_data_end_ = 0;
  std::uint64_t busy_bus_cycles_ = 0;
  bool ran_ = false;

  // Per-decision scratch. seen_[rank * banks + bank] records what the
  // scan met at the bank in decision `decision` (a stamp, so nothing is
  // cleared between decisions): a read or write row hit (its CAS time
  // evaluated), a closed bank (its ACT time evaluated), a conflict.
  // cas_floor_[2 * rank + op] holds CasFloor for the decision; conflicts_
  // lists the conflicting banks (same index) in window order.
  enum SeenBits : std::uint8_t {
    kSeenRead = 1,
    kSeenWrite = 2,
    kSeenAct = 4,
    kSeenConflict = 8,
  };
  struct Seen {
    std::uint64_t decision = 0;
    std::uint8_t bits = 0;
  };
  std::uint64_t decision_ = 0;
  std::vector<Seen> seen_;
  std::vector<std::uint64_t> cas_floor_;
  std::vector<unsigned> conflicts_;
};

}  // namespace pair_ecc::timing
