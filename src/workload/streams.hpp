// Synthetic demand traffic: the one generator behind every synthetic
// workload.
//
// Each kind implements timing::RequestSource and produces requests on
// demand in O(1) state, so arbitrarily long workloads drive the simulator
// in constant memory; timing::Materialize(*MakeStream(cfg)) turns a short
// one into a timing::Trace. Five classic spatial patterns bracket DRAM
// behaviour for the performance experiments:
//
//   kStream         — sequential columns walking rows, bank-interleaved:
//                     the row-buffer-friendly best case;
//   kRandom         — uniformly random (rank, bank, row, column): the
//                     row-buffer-hostile worst case;
//   kHotspot        — a small set of hot rows absorbs `hot_fraction` of
//                     the accesses, the rest random: the middle ground;
//   kLinear         — sequential *physical* line addresses pushed through
//                     an AddressMapper (interleave + optional XOR bank
//                     hash), the way a real controller sees a memcpy;
//   kStrided        — physical addresses advancing by `stride` lines, the
//                     bank-conflict pathology the XOR hash exists to break.
//
// Three shapes bracket modern accelerator traffic:
//
//   kTensorStream   — tile-granular weight/tensor fetches: the kStream walk
//                     in bursts separated by compute gaps; read-heavy. The
//                     bandwidth-saturating case where BL9-style burst
//                     extension hurts most.
//   kPointerChase   — dependent random reads with latency-sized gaps
//                     (graph/sparse traversal): the row-buffer-hostile,
//                     latency-bound worst case.
//   kBatchInference — alternating batch phases: a sequential weight
//                     stream, then read/write activation traffic on a hot
//                     row set — the mixed shape where write-RMW penalties
//                     and row conflicts interact.
//
// Every kind but the pointer chase draws geometric inter-arrival gaps
// (mean 1/`intensity` cycles), then the R/W op (`read_fraction` reads),
// then the address, in that RNG order.
//
// Determinism contract: a stream is a pure function of its config
// (including seed); Reset() rewinds to the identical sequence, which the
// system simulator relies on when it re-streams demand for its timing
// pass, and trial-parallel campaigns rely on when each trial re-creates
// the stream.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dram/address_map.hpp"
#include "timing/request_source.hpp"

namespace pair_ecc::workload {

enum class StreamKind : std::uint8_t {
  kStream,
  kRandom,
  kHotspot,
  kLinear,
  kStrided,
  kTensorStream,
  kPointerChase,
  kBatchInference,
};

std::string ToString(StreamKind kind);

/// Parses any ToString() name; throws on anything else.
StreamKind StreamKindFromString(const std::string& name);

struct StreamConfig {
  StreamKind kind = StreamKind::kTensorStream;
  std::uint64_t num_requests = 20000;
  unsigned ranks = 1;
  unsigned banks = 16;
  unsigned rows = 64;    ///< rows per bank the stream touches
  unsigned cols = 128;   ///< columns per row
  double intensity = 0.25;     ///< offered load (req/cycle; inside a burst)
  double read_fraction = 0.9;  ///< R/W mix where the shape allows writes
  unsigned burst_len = 256;    ///< requests per tile / batch phase
  unsigned gap_cycles = 2000;  ///< compute gap between tiles / batches
  unsigned hot_rows = 4;       ///< kHotspot / kBatchInference: hot row set
  double hot_fraction = 0.8;   ///< kHotspot: share of traffic to hot rows
  /// kLinear/kStrided: controller-side mapping of physical line addresses.
  dram::Interleave interleave = dram::Interleave::kRowInterleaved;
  bool xor_bank_hash = false;
  std::uint64_t stride = 1;    ///< kStrided: lines between accesses
  std::uint64_t seed = 1;

  void Validate() const;
};

/// Builds the seed-reproducible streaming source for `config`.
std::unique_ptr<timing::RequestSource> MakeStream(const StreamConfig& config);

}  // namespace pair_ecc::workload
