#include "timing/controller.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "util/contract.hpp"

namespace pair_ecc::timing {

namespace {

constexpr std::uint64_t kNever = ~std::uint64_t{0};

std::uint64_t SaturatingSub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

}  // namespace

Controller::Controller(const TimingParams& params, const SchemeTiming& scheme,
                       unsigned window, PagePolicy policy,
                       SchedulerKind scheduler)
    : params_(params),
      scheme_(scheme),
      window_(scheduler == SchedulerKind::kFcfs || window == 0 ? 1 : window),
      policy_(policy),
      checker_(params) {
  params_.Validate();
  const std::size_t slots =
      static_cast<std::size_t>(params_.ranks) * params_.banks;
  if (scheduler == SchedulerKind::kPrac) {
    // The RFM an ACT arms outranks demand and precharges that bank before
    // any CAS (Run's RFM drain), so the arming ACT never serves its
    // request. At threshold 1 every ACT arms one, and no request is ever
    // served.
    PAIR_CHECK(params_.rfm_threshold >= 2,
               "PRAC scheduler needs rfm_threshold >= 2, got "
                   << params_.rfm_threshold);
    act_counts_.assign(slots, 0);
  }
  group_of_.resize(params_.banks);
  for (unsigned b = 0; b < params_.banks; ++b)
    group_of_[b] = b % params_.bank_groups;
  ranks_.resize(params_.ranks);
  for (unsigned r = 0; r < params_.ranks; ++r) {
    ranks_[r].banks.resize(params_.banks);
    ranks_[r].ready_act_group.assign(params_.bank_groups, 0);
    ranks_[r].ready_cas_group.assign(params_.bank_groups, 0);
    // Stagger per-rank refresh across the window.
    ranks_[r].next_refresh =
        params_.tREFI + r * (params_.tREFI / params_.ranks);
  }
  seen_.assign(slots, Seen{});
  cas_floor_.assign(2 * static_cast<std::size_t>(params_.ranks), 0);
  conflicts_.reserve(window_);
}

std::uint64_t Controller::BusReadyFor(unsigned rank) const {
  if (has_burst_ && last_burst_rank_ != rank)
    return bus_free_ + params_.tCS;
  return bus_free_;
}

std::uint64_t Controller::RefreshDueAfter(std::uint64_t cycle) const {
  std::uint64_t t = kNever;
  if (!params_.enable_refresh) return t;
  for (const auto& rk : ranks_)
    if (rk.next_refresh > cycle) t = std::min(t, rk.next_refresh);
  return t;
}

std::uint64_t Controller::CasFloor(unsigned rank, Op op) const {
  if (op == Op::kRead)
    return std::max(ranks_[rank].ready_read_cmd,  // tWTR, same rank
                    SaturatingSub(BusReadyFor(rank), params_.tCL));
  const std::uint64_t lead = params_.tCWL + scheme_.write_encode;
  // Bus turnaround bubble after a read burst (any rank).
  return std::max(SaturatingSub(BusReadyFor(rank), lead),
                  SaturatingSub(last_rd_data_end_ + params_.tRTW_gap, lead));
}

std::uint64_t Controller::EarliestCas(const Request& req,
                                      std::uint64_t floor) const {
  const RankState& rk = ranks_[req.rank];
  return std::max({rk.banks[req.addr.bank].ready_cas,
                   rk.ready_cas_group[GroupOf(req.addr.bank)], floor});
}

void Controller::IssueCas(Request& req, std::uint64_t cycle) {
  RankState& rk = ranks_[req.rank];
  BankState& b = rk.banks[req.addr.bank];
  const unsigned group = GroupOf(req.addr.bank);
  if (req.op == Op::kRead) {
    const std::uint64_t data_start = cycle + params_.tCL;
    const std::uint64_t data_end = data_start + scheme_.read_burst;
    checker_.OnCommand(Cmd::kRead, req.rank, req.addr.bank, req.addr.row,
                       cycle, data_start, data_end);
    bus_free_ = data_end;
    last_rd_data_end_ = data_end;
    busy_bus_cycles_ += scheme_.read_burst;
    b.ready_pre = std::max(b.ready_pre, cycle + params_.tRTP);
    req.complete = data_end + scheme_.read_decode;
  } else {
    const std::uint64_t data_start =
        cycle + params_.tCWL + scheme_.write_encode;
    const std::uint64_t data_end = data_start + scheme_.write_burst;
    checker_.OnCommand(Cmd::kWrite, req.rank, req.addr.bank, req.addr.row,
                       cycle, data_start, data_end);
    bus_free_ = data_end;
    busy_bus_cycles_ += scheme_.write_burst;
    // Write recovery, extended by the internal RMW cycle when the scheme's
    // codeword is wider than the write.
    b.ready_pre =
        std::max(b.ready_pre, data_end + params_.tWR + scheme_.rmw_penalty);
    // The die is internally busy with the RMW: hold off further CAS to this
    // bank for the extra column cycle.
    b.ready_cas = std::max(b.ready_cas, cycle + scheme_.rmw_penalty);
    rk.ready_read_cmd = std::max(rk.ready_read_cmd, data_end + params_.tWTR);
    req.complete = data_end;
  }
  for (unsigned g = 0; g < params_.bank_groups; ++g) {
    const unsigned ccd = g == group ? params_.tCCD_L : params_.tCCD_S;
    rk.ready_cas_group[g] = std::max(rk.ready_cas_group[g], cycle + ccd);
  }
  b.had_cas = true;
  last_burst_rank_ = req.rank;
  has_burst_ = true;
  req.issue = cycle;
}

std::uint64_t Controller::EarliestAct(unsigned rank, unsigned bank) const {
  const RankState& rk = ranks_[rank];
  std::uint64_t t = std::max({rk.banks[bank].ready_act,
                              rk.ready_act_group[GroupOf(bank)],
                              rk.ready_act_any});
  if (rk.act_count >= 4)
    t = std::max(t, rk.recent_acts[rk.act_count % 4] + params_.tFAW);
  return t;
}

void Controller::IssueAct(unsigned rank, unsigned bank, unsigned row,
                          std::uint64_t cycle) {
  checker_.OnCommand(Cmd::kAct, rank, bank, row, cycle);
  RankState& rk = ranks_[rank];
  BankState& b = rk.banks[bank];
  b.open = true;
  b.row = row;
  b.had_cas = false;
  b.ready_cas = cycle + params_.tRCD;
  b.ready_pre = std::max(b.ready_pre, cycle + params_.tRAS);
  b.ready_act = cycle + params_.tRC;
  rk.ready_act_group[GroupOf(bank)] = cycle + params_.tRRD_L;
  rk.ready_act_any = std::max(rk.ready_act_any, cycle + params_.tRRD_S);
  rk.recent_acts[rk.act_count++ % 4] = cycle;
  if (!act_counts_.empty()) {
    const unsigned slot = rank * params_.banks + bank;
    if (++act_counts_[slot] >= params_.rfm_threshold) {
      act_counts_[slot] = 0;
      rfm_due_.push_back(slot);
    }
  }
}

void Controller::IssuePre(unsigned rank, unsigned bank, std::uint64_t cycle) {
  BankState& b = ranks_[rank].banks[bank];
  checker_.OnCommand(Cmd::kPre, rank, bank, b.row, cycle);
  b.open = false;
  b.had_cas = false;
  b.ready_act = std::max(b.ready_act, cycle + params_.tRP);
}

SimStats Controller::Run(Trace& trace) {
  for (const auto& req : trace)
    PAIR_CHECK(req.rank < params_.ranks, "Controller::Run: request rank out of range");

  VectorSource source(trace);
  return Run(source, [&trace](const Request& req, std::uint64_t index) {
    trace[index].issue = req.issue;
    trace[index].complete = req.complete;
  });
}

SimStats Controller::Run(RequestSource& source,
                         const CompletionHook& on_complete,
                         bool track_latency_percentiles) {
  PAIR_CHECK(!ran_, "Controller::Run: a Controller simulates one stream; "
                    "construct a new one for each run");
  ran_ = true;
  SimStats stats;
  // The queue in arrival order: the reorder window holds its first
  // window_ requests, contiguous, and the backlog the rest. A CAS erases
  // its request from the window and the backlog's front refills it.
  std::vector<Pending> window;
  window.reserve(window_);
  std::deque<Pending> backlog;
  std::uint64_t cycle = 0;
  std::uint64_t read_latency_sum = 0;
  std::vector<std::uint64_t> read_latencies;

  // One-request lookahead into the stream (the streaming equivalent of
  // peeking trace[next_arrival]).
  Request next_req;
  std::uint64_t next_index = 0;
  std::uint64_t last_arrival = 0;
  auto pull = [&]() {
    if (!source.Next(next_req)) return false;
    PAIR_CHECK(next_req.rank < params_.ranks,
               "Controller::Run: request rank out of range");
    PAIR_CHECK(next_req.addr.bank < params_.banks,
               "Controller::Run: request bank out of range");
    PAIR_CHECK(next_req.arrival >= last_arrival,
               "Controller::Run: source arrivals must be non-decreasing");
    last_arrival = next_req.arrival;
    return true;
  };
  bool have_next = pull();

  // Classify locality on first sight of each request (for row-hit stats).
  auto classify = [&](const Request& req) {
    const BankState& b = ranks_[req.rank].banks[req.addr.bank];
    if (b.open && b.row == req.addr.row) {
      ++stats.row_hits;
    } else if (!b.open) {
      ++stats.row_misses;
    } else {
      ++stats.row_conflicts;
    }
  };

  // An idle demand decision's carried pick: the oldest window row hit
  // with the smallest CAS time, carry_at. A command issuing drops it
  // (carry_at = kNever).
  std::size_t carry = 0;
  std::uint64_t carry_at = kNever;

  // A decision that issued nothing resumes at `wake`: the earliest cycle
  // at which an arrival, a refresh falling due or a command's earliest
  // issue cycle can change what the decision does. Every legality test is
  // `cycle >= t` against state only a command changes, so the cycles in
  // between would all have issued nothing too.
  auto advance = [&](bool issued, std::uint64_t wake) {
    PAIR_DCHECK(issued || wake != kNever,
                "Controller::Run: idle decision with nothing to wait for");
    if (issued) carry_at = kNever;
    cycle = issued ? cycle + 1 : std::max(cycle + 1, wake);
  };
  auto first_wake = [&]() {
    return std::min(have_next ? next_req.arrival : kNever,
                    RefreshDueAfter(cycle));
  };

  // One scan of the reorder window decides a demand cycle, in priority
  // order: the oldest request whose CAS can issue (a row hit, returned);
  // else the oldest request whose bank is closed and whose ACT can issue
  // (act_pick); else a PRE for the oldest conflicting request whose open
  // row no window request hits (classic FR-FCFS row-hit preference). The
  // scan marks in seen_ each bank some window request hits, so the hit
  // test is O(1), and lists the conflicting banks in window order. A
  // later request to a (rank, bank, direction) whose CAS time the scan
  // already found not ready has that same time, as a later request to a
  // closed bank has the same ACT time, so neither is evaluated twice; an
  // idle scan leaves its carried pick in carry / carry_at.
  auto scan = [&](std::uint64_t& wake, std::size_t& act_pick) {
    const std::size_t n = window.size();
    const std::uint64_t decision = ++decision_;
    for (unsigned r = 0; r < params_.ranks; ++r) {
      cas_floor_[2 * r] = CasFloor(r, Op::kRead);
      cas_floor_[2 * r + 1] = CasFloor(r, Op::kWrite);
    }
    act_pick = n;
    carry_at = kNever;
    conflicts_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const Request& req = window[i].req;
      const unsigned slot = req.rank * params_.banks + req.addr.bank;
      const BankState& b = ranks_[req.rank].banks[req.addr.bank];
      Seen& seen = seen_[slot];
      if (seen.decision != decision) seen = Seen{decision, 0};
      if (b.open && b.row == req.addr.row) {
        const bool write = req.op == Op::kWrite;
        const std::uint8_t bit = write ? kSeenWrite : kSeenRead;
        if (seen.bits & bit) continue;
        seen.bits |= bit;
        const std::uint64_t t =
            EarliestCas(req, cas_floor_[2 * req.rank + (write ? 1 : 0)]);
        if (t <= cycle) return i;
        if (t < carry_at) {
          carry = i;
          carry_at = t;
        }
        wake = std::min(wake, t);
      } else if (!b.open) {
        if (act_pick != n || (seen.bits & kSeenAct)) continue;
        seen.bits |= kSeenAct;
        const std::uint64_t t = EarliestAct(req.rank, req.addr.bank);
        if (t <= cycle) {
          act_pick = i;
        } else {
          wake = std::min(wake, t);
        }
      } else if (!(seen.bits & kSeenConflict)) {
        seen.bits |= kSeenConflict;
        conflicts_.push_back(slot);
      }
    }
    return n;
  };

  while (have_next || !window.empty()) {
    // Admit arrivals.
    while (have_next && next_req.arrival <= cycle) {
      classify(next_req);
      if (window.size() < window_) {
        window.push_back(Pending{next_req, next_index++});
      } else {
        backlog.push_back(Pending{next_req, next_index++});
      }
      have_next = pull();
    }

    // Refresh has priority: once a rank's REF falls due, drain its open
    // rows and issue the all-bank REF before any further traffic to it.
    if (params_.enable_refresh) {
      unsigned r = 0;
      while (r < params_.ranks && cycle < ranks_[r].next_refresh) ++r;
      if (r < params_.ranks) {
        RankState& rk = ranks_[r];
        bool all_closed = true;
        bool issued = false;
        std::uint64_t wake = first_wake();
        for (unsigned b = 0; b < params_.banks; ++b) {
          if (!rk.banks[b].open) continue;
          all_closed = false;
          if (rk.banks[b].ready_pre <= cycle) {
            IssuePre(r, b, cycle);
            issued = true;
            break;
          }
          wake = std::min(wake, rk.banks[b].ready_pre);
        }
        if (all_closed) {
          checker_.OnCommand(Cmd::kRef, r, 0, 0, cycle);
          for (auto& b : rk.banks)
            b.ready_act = std::max(b.ready_act, cycle + params_.tRFC);
          rk.next_refresh += params_.tREFI;
          ++stats.refreshes;
          issued = true;
        }
        advance(issued, wake);
        continue;
      }
    }

    if (window.empty()) {
      // Idle: jump to the next arrival or refresh.
      advance(false, first_wake());
      continue;
    }

    // Refresh management (PRAC) drains like refresh: precharge the due
    // bank, then hold it for tRFM. It outranks demand so the activation
    // bound cannot be starved by a row-hit streak.
    if (!rfm_due_.empty()) {
      const unsigned rfm_rank = rfm_due_.front() / params_.banks;
      const unsigned rfm_bank = rfm_due_.front() % params_.banks;
      BankState& b = ranks_[rfm_rank].banks[rfm_bank];
      const std::uint64_t ready = b.open ? b.ready_pre : b.ready_act;
      if (ready <= cycle && b.open) {
        IssuePre(rfm_rank, rfm_bank, cycle);
      } else if (ready <= cycle) {
        checker_.OnCommand(Cmd::kRfm, rfm_rank, rfm_bank, 0, cycle);
        b.ready_act = std::max(b.ready_act, cycle + params_.tRFM);
        rfm_due_.pop_front();
        ++stats.rfm_commands;
      }
      advance(ready <= cycle, std::min(first_wake(), ready));
      continue;
    }

    // An arrival behind a full window cannot change the decision, so it
    // does not wake one; it is admitted (and classified, against the same
    // bank state, since no command issues meanwhile) at the next wake.
    // Once cycle reaches an idle decision's carried pick with no command
    // issued since, that request is the pick without a scan: every older
    // row hit has a later CAS time, and arrivals only append. cycle never
    // passes carry_at while the pick lives: every idle demand wake
    // includes it, and the refresh and RFM drains end in a command.
    const std::size_t n = window.size();
    std::uint64_t wake =
        std::min(have_next && n < window_ ? next_req.arrival : kNever,
                 RefreshDueAfter(cycle));
    std::size_t act_pick = n;
    std::size_t cas_pick = n;
    if (carry_at <= cycle) {
      cas_pick = carry;
      PAIR_DCHECK(scan(wake, act_pick) == cas_pick,
                  "Controller::Run: carried pick " << cas_pick
                                                   << " is not the scan's");
    } else {
      cas_pick = scan(wake, act_pick);
    }

    bool issued = true;
    if (cas_pick != n) {
      Pending& p = window[cas_pick];
      IssueCas(p.req, cycle);
      if (p.req.op == Op::kRead) {
        ++stats.reads;
        read_latency_sum += p.req.Latency();
        if (track_latency_percentiles)
          read_latencies.push_back(p.req.Latency());
      } else {
        ++stats.writes;
      }
      stats.cycles = std::max(stats.cycles, p.req.complete);
      if (on_complete) on_complete(p.req, p.index);
      window.erase(window.begin() + static_cast<std::ptrdiff_t>(cas_pick));
      if (!backlog.empty()) {
        window.push_back(backlog.front());
        backlog.pop_front();
      }
    } else if (act_pick != n) {
      const Request& req = window[act_pick].req;
      IssueAct(req.rank, req.addr.bank, req.addr.row, cycle);
    } else {
      // Precharge candidates: conflicting banks, then (closed-page policy)
      // every serviced bank, each only while no window request hits its
      // open row.
      issued = false;
      auto try_pre = [&](unsigned slot) {
        if (seen_[slot].decision == decision_ &&
            (seen_[slot].bits & (kSeenRead | kSeenWrite)))
          return false;
        const unsigned rank = slot / params_.banks;
        const unsigned bank = slot % params_.banks;
        const std::uint64_t ready = ranks_[rank].banks[bank].ready_pre;
        if (ready > cycle) {
          wake = std::min(wake, ready);
          return false;
        }
        IssuePre(rank, bank, cycle);
        return true;
      };
      for (std::size_t k = 0; k < conflicts_.size() && !issued; ++k)
        issued = try_pre(conflicts_[k]);
      if (policy_ == PagePolicy::kClosed) {
        for (unsigned slot = 0; slot < seen_.size() && !issued; ++slot) {
          const BankState& state =
              ranks_[slot / params_.banks].banks[slot % params_.banks];
          if (state.open && state.had_cas) issued = try_pre(slot);
        }
      }
    }
    advance(issued, wake);
  }

  if (stats.reads > 0)
    stats.avg_read_latency = static_cast<double>(read_latency_sum) /
                             static_cast<double>(stats.reads);
  if (!read_latencies.empty()) {
    std::sort(read_latencies.begin(), read_latencies.end());
    const std::size_t p99 =
        std::min(read_latencies.size() - 1, read_latencies.size() * 99 / 100);
    stats.p99_read_latency = static_cast<double>(read_latencies[p99]);
  }
  stats.bus_utilization =
      stats.cycles == 0 ? 0.0
                        : static_cast<double>(busy_bus_cycles_) /
                              static_cast<double>(stats.cycles);
  return stats;
}

}  // namespace pair_ecc::timing
