#include "timing/scheduler.hpp"

#include <algorithm>
#include <deque>

#include "util/contract.hpp"

namespace pair_ecc::timing {

const char* ToString(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFrFcfs: return "frfcfs";
    case SchedulerKind::kFcfs:   return "fcfs";
    case SchedulerKind::kPrac:   return "prac";
  }
  return "?";
}

SchedulerKind SchedulerKindFromString(const std::string& name) {
  if (name == "frfcfs") return SchedulerKind::kFrFcfs;
  if (name == "fcfs") return SchedulerKind::kFcfs;
  if (name == "prac") return SchedulerKind::kPrac;
  PAIR_CHECK(false, "unknown scheduler '" << name
                                          << "' (want frfcfs|fcfs|prac)");
  return SchedulerKind::kFrFcfs;
}

namespace {

class FrFcfsScheduler final : public Scheduler {
 public:
  explicit FrFcfsScheduler(unsigned window) : window_(window) {}

  SchedulerKind kind() const noexcept override {
    return SchedulerKind::kFrFcfs;
  }
  std::size_t Window(std::size_t queue_depth) const override {
    return std::min<std::size_t>(window_, queue_depth);
  }
  void OnAct(unsigned, unsigned) override {}
  bool RfmDue(unsigned&, unsigned&) const override { return false; }
  void OnRfm() override {}

 private:
  unsigned window_;
};

class FcfsScheduler final : public Scheduler {
 public:
  SchedulerKind kind() const noexcept override { return SchedulerKind::kFcfs; }
  std::size_t Window(std::size_t queue_depth) const override {
    // Only the queue head is eligible: with every pick pass limited to
    // index 0, requests issue strictly in arrival order.
    return std::min<std::size_t>(1, queue_depth);
  }
  void OnAct(unsigned, unsigned) override {}
  bool RfmDue(unsigned&, unsigned&) const override { return false; }
  void OnRfm() override {}
};

// FR-FCFS reordering plus per-bank activation counting. Crossing the
// threshold enqueues the bank for an RFM; the due queue drains in
// crossing order, so the policy is deterministic for a deterministic
// command stream.
class PracScheduler final : public Scheduler {
 public:
  PracScheduler(unsigned window, unsigned ranks, unsigned banks,
                unsigned threshold)
      : window_(window),
        banks_(banks),
        threshold_(threshold),
        counts_(static_cast<std::size_t>(ranks) * banks, 0) {}

  SchedulerKind kind() const noexcept override { return SchedulerKind::kPrac; }
  std::size_t Window(std::size_t queue_depth) const override {
    return std::min<std::size_t>(window_, queue_depth);
  }
  void OnAct(unsigned rank, unsigned bank) override {
    std::uint32_t& count =
        counts_[static_cast<std::size_t>(rank) * banks_ + bank];
    if (++count >= threshold_) {
      count = 0;
      due_.emplace_back(rank, bank);
    }
  }
  bool RfmDue(unsigned& rank, unsigned& bank) const override {
    if (due_.empty()) return false;
    rank = due_.front().first;
    bank = due_.front().second;
    return true;
  }
  void OnRfm() override { due_.pop_front(); }

 private:
  unsigned window_;
  unsigned banks_;
  unsigned threshold_;
  std::vector<std::uint32_t> counts_;
  std::deque<std::pair<unsigned, unsigned>> due_;
};

}  // namespace

std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind, unsigned window,
                                         unsigned ranks, unsigned banks,
                                         unsigned rfm_threshold) {
  switch (kind) {
    case SchedulerKind::kFrFcfs:
      return std::make_unique<FrFcfsScheduler>(window);
    case SchedulerKind::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kPrac:
      // The RFM an ACT arms outranks demand and precharges that bank before
      // any CAS (Controller::Run's RFM drain), so the arming ACT never
      // serves its request. At threshold 1 every ACT arms one, and no
      // request is ever served.
      PAIR_CHECK(rfm_threshold >= 2, "PRAC scheduler needs rfm_threshold >= 2"
                                     ", got " << rfm_threshold);
      return std::make_unique<PracScheduler>(window, ranks, banks,
                                             rfm_threshold);
  }
  PAIR_CHECK(false, "unknown SchedulerKind");
  return nullptr;
}

}  // namespace pair_ecc::timing
