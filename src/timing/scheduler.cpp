#include "timing/scheduler.hpp"

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

}  // namespace pair_ecc::timing
