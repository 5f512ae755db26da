// Scenario: evaluate a protection scheme as a *system*, not a codec —
// demand traffic, time-dependent fault arrivals, patrol scrub, and
// threshold-driven repair interleaved over one event queue (src/sim),
// with every access timed by the cycle-approximate DDR4 controller. The
// demand is a synthetic workload::MakeStream source, pulled one request
// at a time by every trial.
//
// Usage: memory_system_sim [scheme] [pattern] [read_fraction]
//   scheme  — noecc | iecc | secded | iecc+secded | xed | duo | pair2 |
//             pair4 | pair4+secded            (default pair4)
//   pattern — stream | random | hotspot | linear | strided | tensor |
//             pointer | batch                 (default hotspot)
//   read_fraction — in [0,1]                  (default 0.5)
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "sim/memory_system.hpp"
#include "workload/streams.hpp"

using namespace pair_ecc;

int main(int argc, char** argv) {
  const std::map<std::string, ecc::SchemeKind> schemes = {
      {"noecc", ecc::SchemeKind::kNoEcc},
      {"iecc", ecc::SchemeKind::kIecc},
      {"secded", ecc::SchemeKind::kSecDed},
      {"iecc+secded", ecc::SchemeKind::kIeccSecDed},
      {"xed", ecc::SchemeKind::kXed},
      {"duo", ecc::SchemeKind::kDuo},
      {"pair2", ecc::SchemeKind::kPair2},
      {"pair4", ecc::SchemeKind::kPair4},
      {"pair4+secded", ecc::SchemeKind::kPair4SecDed},
  };
  const std::map<std::string, workload::StreamKind> patterns = {
      {"stream", workload::StreamKind::kStream},
      {"random", workload::StreamKind::kRandom},
      {"hotspot", workload::StreamKind::kHotspot},
      {"linear", workload::StreamKind::kLinear},
      {"strided", workload::StreamKind::kStrided},
      {"tensor", workload::StreamKind::kTensorStream},
      {"pointer", workload::StreamKind::kPointerChase},
      {"batch", workload::StreamKind::kBatchInference},
  };

  const std::string scheme_name = argc > 1 ? argv[1] : "pair4";
  const std::string pattern_name = argc > 2 ? argv[2] : "hotspot";
  const double read_fraction = argc > 3 ? std::atof(argv[3]) : 0.5;
  if (!schemes.count(scheme_name) || !patterns.count(pattern_name) ||
      read_fraction < 0.0 || read_fraction > 1.0) {
    std::cerr << "usage: memory_system_sim [scheme] [pattern] [read_fraction]\n"
                 "  schemes: ";
    for (const auto& [name, kind] : schemes) std::cerr << name << " ";
    std::cerr << "\n  patterns: ";
    for (const auto& [name, kind] : patterns) std::cerr << name << " ";
    std::cerr << "\n";
    return 1;
  }

  // A short but busy demand window: 200 requests at moderate intensity
  // (the functional ECC decode dominates runtime, so examples stay small).
  workload::StreamConfig wl;
  wl.kind = patterns.at(pattern_name);
  wl.read_fraction = read_fraction;
  wl.intensity = 0.12;
  wl.num_requests = 200;
  wl.seed = 99;

  sim::SystemConfig cfg;
  cfg.scheme = schemes.at(scheme_name);
  cfg.faults_per_mcycle = 100.0;     // stressful: faults arrive mid-run
  cfg.scrub.interval_cycles = 2000;  // aggressive patrol scrub
  cfg.repair.due_threshold = 2;
  cfg.seed = 7;

  const unsigned trials = 10;
  sim::StreamingDemandInfo demand;
  const sim::SystemStats s = sim::RunSystemCampaignStreaming(
      cfg, [wl] { return workload::MakeStream(wl); }, trials, nullptr,
      &demand);

  const double ns_per_cycle = cfg.timing.tck_ns;
  std::cout << "workload: " << pattern_name << ", read fraction "
            << read_fraction << ", " << demand.requests << " requests, "
            << trials << " lifetimes\n"
            << "scheme:   " << scheme_name << "\n\n"
            << "  P(SDC) / lifetime : " << s.SdcProbability() << "\n"
            << "  P(DUE) / lifetime : " << s.DueProbability() << "\n"
            << "  corrected reads   : " << s.corrected << "\n"
            << "  faults injected   : " << s.faults_injected << "\n"
            << "  rows scrubbed     : " << s.scrub_rows_scrubbed << "\n"
            << "  repairs attempted : " << s.repair.repairs_attempted
            << " (rows spared " << s.repair.rows_spared << ")\n"
            << "  avg read latency  : " << s.AvgReadLatency() << " cyc\n"
            << "  bandwidth         : " << s.BytesPerCycle() / ns_per_cycle
            << " GB/s\n"
            << "  protocol checks   : "
            << (s.protocol_violations == 0 ? "clean" : "VIOLATIONS") << "\n";
  return s.protocol_violations == 0 ? 0 : 1;
}
