#include "timing/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contract.hpp"

namespace pair_ecc::timing {

Controller::Controller(const TimingParams& params, const SchemeTiming& scheme,
                       unsigned window, PagePolicy policy,
                       SchedulerKind scheduler)
    : params_(params),
      scheme_(scheme),
      window_(window == 0 ? 1 : window),
      policy_(policy),
      checker_(params) {
  params_.Validate();
  scheduler_ = MakeScheduler(scheduler, window_, params_.ranks, params_.banks,
                             params_.rfm_threshold);
  ranks_.resize(params_.ranks);
  for (unsigned r = 0; r < params_.ranks; ++r) {
    ranks_[r].banks.resize(params_.banks);
    ranks_[r].ready_act_group.assign(params_.bank_groups, 0);
    ranks_[r].ready_cas_group.assign(params_.bank_groups, 0);
    // Stagger per-rank refresh across the window.
    ranks_[r].next_refresh =
        params_.tREFI + r * (params_.tREFI / params_.ranks);
  }
}

std::uint64_t Controller::BusReadyFor(unsigned rank) const {
  if (has_burst_ && last_burst_rank_ != rank)
    return bus_free_ + params_.tCS;
  return bus_free_;
}

bool Controller::CanIssueCas(const Request& req, std::uint64_t cycle) const {
  const RankState& rk = ranks_[req.rank];
  const BankState& b = rk.banks[req.addr.bank];
  if (!b.open || b.row != req.addr.row) return false;
  if (cycle < b.ready_cas) return false;
  const unsigned group = GroupOf(req.addr.bank);
  if (cycle < rk.ready_cas_group[group]) return false;
  if (req.op == Op::kRead) {
    if (cycle < rk.ready_read_cmd) return false;  // tWTR, same rank
    const std::uint64_t data_start = cycle + params_.tCL;
    return data_start >= BusReadyFor(req.rank);
  }
  const std::uint64_t data_start =
      cycle + params_.tCWL + scheme_.write_encode;
  if (data_start < BusReadyFor(req.rank)) return false;
  // Bus turnaround bubble after a read burst (any rank).
  return data_start >= last_rd_data_end_ + params_.tRTW_gap;
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

bool Controller::CanAct(unsigned rank, unsigned bank,
                        std::uint64_t cycle) const {
  const RankState& rk = ranks_[rank];
  const BankState& b = rk.banks[bank];
  if (b.open) return false;
  if (cycle < b.ready_act) return false;
  if (cycle < rk.ready_act_group[GroupOf(bank)] || cycle < rk.ready_act_any)
    return false;
  if (rk.act_history.size() >= 4 &&
      cycle < rk.act_history[rk.act_history.size() - 4] + params_.tFAW)
    return false;
  return true;
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
  rk.act_history.push_back(cycle);
  if (rk.act_history.size() > 8) rk.act_history.pop_front();
  scheduler_->OnAct(rank, bank);
}

bool Controller::CanPre(unsigned rank, unsigned bank,
                        std::uint64_t cycle) const {
  const BankState& b = ranks_[rank].banks[bank];
  return b.open && cycle >= b.ready_pre;
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
  SimStats stats;
  std::deque<Pending> queue;
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

  auto earliest_refresh = [&]() {
    std::uint64_t t = ~std::uint64_t{0};
    for (const auto& rk : ranks_) t = std::min(t, rk.next_refresh);
    return t;
  };

  while (have_next || !queue.empty()) {
    // Admit arrivals.
    while (have_next && next_req.arrival <= cycle) {
      classify(next_req);
      queue.push_back(Pending{next_req, next_index++});
      have_next = pull();
    }
    if (queue.empty() &&
        (!params_.enable_refresh || next_req.arrival < earliest_refresh())) {
      cycle = next_req.arrival;  // skip idle gap
      continue;
    }

    // Refresh has priority: once a rank's REF falls due, drain its open
    // rows and issue the all-bank REF before any further traffic to it.
    if (params_.enable_refresh) {
      bool refresh_work = false;
      for (unsigned r = 0; r < params_.ranks && !refresh_work; ++r) {
        RankState& rk = ranks_[r];
        if (cycle < rk.next_refresh) continue;
        refresh_work = true;
        bool all_closed = true;
        bool issued_pre = false;
        for (unsigned b = 0; b < params_.banks && !issued_pre; ++b) {
          if (!rk.banks[b].open) continue;
          all_closed = false;
          if (CanPre(r, b, cycle)) {
            IssuePre(r, b, cycle);
            issued_pre = true;
          }
        }
        if (all_closed) {
          checker_.OnCommand(Cmd::kRef, r, 0, 0, cycle);
          for (auto& b : rk.banks)
            b.ready_act = std::max(b.ready_act, cycle + params_.tRFC);
          rk.next_refresh += params_.tREFI;
          ++stats.refreshes;
        }
      }
      if (refresh_work) {
        ++cycle;
        continue;
      }
    }

    if (queue.empty()) {
      // Only a pending refresh is keeping us here; jump to it.
      cycle = std::max(cycle + 1, earliest_refresh());
      continue;
    }

    // Refresh management (PRAC) drains like refresh: precharge the due
    // bank, then hold it for tRFM. It outranks demand so the activation
    // bound cannot be starved by a row-hit streak.
    {
      unsigned rfm_rank = 0;
      unsigned rfm_bank = 0;
      if (scheduler_->RfmDue(rfm_rank, rfm_bank)) {
        BankState& b = ranks_[rfm_rank].banks[rfm_bank];
        if (b.open) {
          if (CanPre(rfm_rank, rfm_bank, cycle))
            IssuePre(rfm_rank, rfm_bank, cycle);
        } else if (cycle >= b.ready_act) {
          checker_.OnCommand(Cmd::kRfm, rfm_rank, rfm_bank, 0, cycle);
          b.ready_act = std::max(b.ready_act, cycle + params_.tRFM);
          scheduler_->OnRfm();
          ++stats.rfm_commands;
        }
        ++cycle;
        continue;
      }
    }

    const std::size_t window = scheduler_->Window(queue.size());
    bool issued = false;

    // Pass 1: oldest row-hit CAS in the window that can issue now.
    for (std::size_t i = 0; i < window && !issued; ++i) {
      Pending& p = queue[i];
      if (CanIssueCas(p.req, cycle)) {
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
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
        issued = true;
      }
    }

    // Pass 2: open the row for the oldest request whose bank is closed.
    for (std::size_t i = 0; i < window && !issued; ++i) {
      const Request& req = queue[i].req;
      const BankState& b = ranks_[req.rank].banks[req.addr.bank];
      if (!b.open && CanAct(req.rank, req.addr.bank, cycle)) {
        IssueAct(req.rank, req.addr.bank, req.addr.row, cycle);
        issued = true;
      }
    }

    // Pass 3: close a conflicting row — but never while some queued request
    // in the window still hits it (classic FR-FCFS row-hit preference).
    for (std::size_t i = 0; i < window && !issued; ++i) {
      const Request& req = queue[i].req;
      const BankState& b = ranks_[req.rank].banks[req.addr.bank];
      if (!b.open || b.row == req.addr.row) continue;
      bool someone_hits = false;
      for (std::size_t j = 0; j < window && !someone_hits; ++j)
        someone_hits = queue[j].req.rank == req.rank &&
                       queue[j].req.addr.bank == req.addr.bank &&
                       queue[j].req.addr.row == b.row;
      if (!someone_hits && CanPre(req.rank, req.addr.bank, cycle)) {
        IssuePre(req.rank, req.addr.bank, cycle);
        issued = true;
      }
    }

    // Pass 4 (closed-page policy): speculatively precharge any serviced
    // bank whose open row has no remaining hit in the window.
    if (policy_ == PagePolicy::kClosed) {
      for (unsigned r = 0; r < params_.ranks && !issued; ++r) {
        for (unsigned b = 0; b < params_.banks && !issued; ++b) {
          const BankState& state = ranks_[r].banks[b];
          if (!state.open || !state.had_cas) continue;
          bool someone_hits = false;
          for (std::size_t j = 0; j < window && !someone_hits; ++j)
            someone_hits = queue[j].req.rank == r &&
                           queue[j].req.addr.bank == b &&
                           queue[j].req.addr.row == state.row;
          if (!someone_hits && CanPre(r, b, cycle)) {
            IssuePre(r, b, cycle);
            issued = true;
          }
        }
      }
    }

    ++cycle;
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
