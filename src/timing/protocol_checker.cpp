#include "timing/protocol_checker.hpp"

#include <sstream>

namespace pair_ecc::timing {

std::string ToString(Cmd cmd) {
  switch (cmd) {
    case Cmd::kAct:   return "ACT";
    case Cmd::kPre:   return "PRE";
    case Cmd::kRead:  return "RD";
    case Cmd::kWrite: return "WR";
    case Cmd::kRef:   return "REF";
    case Cmd::kRfm:   return "RFM";
  }
  return "?";
}

ProtocolChecker::ProtocolChecker(const TimingParams& params)
    : params_(params) {
  params_.Validate();
  ranks_.resize(params_.ranks);
  for (auto& r : ranks_) {
    r.banks.resize(params_.banks);
    r.last_act_group.assign(params_.bank_groups, 0);
    r.has_act_group.assign(params_.bank_groups, false);
  }
}

void ProtocolChecker::Expect(bool ok, Cmd cmd, unsigned rank, unsigned bank,
                             std::uint64_t cycle, const char* rule) {
  if (ok) return;
  std::ostringstream ss;
  ss << ToString(cmd) << " rank " << rank << " bank " << bank << " @" << cycle
     << " violates " << rule;
  violations_.push_back(ss.str());
}

void ProtocolChecker::OnCommand(Cmd cmd, unsigned rank, unsigned bank,
                                unsigned row, std::uint64_t cycle,
                                std::uint64_t data_start,
                                std::uint64_t data_end) {
  ++commands_;
  if (rank >= ranks_.size() || bank >= params_.banks) {
    violations_.push_back("command to out-of-range rank/bank");
    return;
  }
  RankTrack& rk = ranks_[rank];
  BankTrack& b = rk.banks[bank];
  const unsigned group = GroupOf(bank);

  switch (cmd) {
    case Cmd::kRef: {
      // All-bank refresh: the whole rank must be precharged.
      for (unsigned i = 0; i < rk.banks.size(); ++i)
        Expect(!rk.banks[i].open, cmd, rank, i, cycle, "REF with an open bank");
      if (rk.has_ref)
        Expect(cycle >= rk.last_ref + params_.tRFC, cmd, rank, bank, cycle,
               "tRFC (back-to-back REF)");
      rk.last_ref = cycle;
      rk.has_ref = true;
      break;
    }
    case Cmd::kRfm: {
      // Per-bank refresh management: the target bank must be precharged
      // (tRP after its PRE) and outside any earlier RFM's tRFM window.
      Expect(!b.open, cmd, rank, bank, cycle, "RFM to an open bank");
      if (b.has_pre)
        Expect(cycle >= b.last_pre + params_.tRP, cmd, rank, bank, cycle,
               "tRP (RFM after PRE)");
      if (b.has_rfm)
        Expect(cycle >= b.last_rfm + params_.tRFM, cmd, rank, bank, cycle,
               "tRFM (back-to-back RFM)");
      b.last_rfm = cycle;
      b.has_rfm = true;
      break;
    }
    case Cmd::kAct: {
      Expect(!b.open, cmd, rank, bank, cycle, "ACT to an open bank");
      if (rk.has_ref)
        Expect(cycle >= rk.last_ref + params_.tRFC, cmd, rank, bank, cycle,
               "tRFC (ACT during refresh)");
      if (b.has_rfm)
        Expect(cycle >= b.last_rfm + params_.tRFM, cmd, rank, bank, cycle,
               "tRFM (ACT during refresh management)");
      if (b.has_act)
        Expect(cycle >= b.last_act + params_.tRC, cmd, rank, bank, cycle,
               "tRC");
      if (b.has_pre)
        Expect(cycle >= b.last_pre + params_.tRP, cmd, rank, bank, cycle,
               "tRP");
      if (rk.has_act_group[group])
        Expect(cycle >= rk.last_act_group[group] + params_.tRRD_L, cmd, rank,
               bank, cycle, "tRRD_L");
      if (rk.has_act_any)
        Expect(cycle >= rk.last_act_any + params_.tRRD_S, cmd, rank, bank,
               cycle, "tRRD_S");
      if (rk.act_count >= 4)
        Expect(cycle >= rk.recent_acts[rk.act_count % 4] + params_.tFAW, cmd,
               rank, bank, cycle, "tFAW");
      b.open = true;
      b.row = row;
      b.last_act = cycle;
      b.has_act = true;
      rk.last_act_group[group] = cycle;
      rk.has_act_group[group] = true;
      rk.last_act_any = cycle;
      rk.has_act_any = true;
      rk.recent_acts[rk.act_count++ % 4] = cycle;
      break;
    }
    case Cmd::kPre: {
      Expect(b.open, cmd, rank, bank, cycle, "PRE to a closed bank");
      if (b.has_act)
        Expect(cycle >= b.last_act + params_.tRAS, cmd, rank, bank, cycle,
               "tRAS");
      if (b.has_rd)
        Expect(cycle >= b.last_rd + params_.tRTP, cmd, rank, bank, cycle,
               "tRTP");
      if (b.has_wr)
        Expect(cycle >= b.last_wr_data_end + params_.tWR, cmd, rank, bank,
               cycle, "tWR");
      b.open = false;
      b.last_pre = cycle;
      b.has_pre = true;
      break;
    }
    case Cmd::kRead:
    case Cmd::kWrite: {
      Expect(b.open, cmd, rank, bank, cycle, "CAS to a closed bank");
      if (b.open)
        Expect(b.row == row, cmd, rank, bank, cycle, "CAS to the wrong open row");
      if (b.has_act)
        Expect(cycle >= b.last_act + params_.tRCD, cmd, rank, bank, cycle,
               "tRCD");
      if (rk.has_cas) {
        const unsigned ccd =
            group == rk.last_cas_group ? params_.tCCD_L : params_.tCCD_S;
        Expect(cycle >= rk.last_cas + ccd, cmd, rank, bank, cycle, "tCCD");
      }
      // Shared data bus, with a switch gap across ranks.
      const std::uint64_t required_start =
          has_burst_ && last_burst_rank_ != rank
              ? bus_busy_until_ + params_.tCS
              : bus_busy_until_;
      Expect(data_start >= required_start, cmd, rank, bank, cycle,
             has_burst_ && last_burst_rank_ != rank ? "tCS / data-bus overlap"
                                                    : "data-bus overlap");
      Expect(data_end > data_start, cmd, rank, bank, cycle,
             "empty data burst");
      if (cmd == Cmd::kRead && rk.has_wr)
        Expect(cycle >= rk.last_wr_data_end + params_.tWTR, cmd, rank, bank,
               cycle, "tWTR");
      if (cmd == Cmd::kRead) {
        b.last_rd = cycle;
        b.has_rd = true;
      } else {
        b.last_wr_data_end = data_end;
        b.has_wr = true;
        rk.last_wr_data_end = data_end;
        rk.has_wr = true;
      }
      rk.last_cas = cycle;
      rk.last_cas_group = group;
      rk.has_cas = true;
      bus_busy_until_ = data_end;
      last_burst_rank_ = rank;
      has_burst_ = true;
      break;
    }
  }
}

}  // namespace pair_ecc::timing
