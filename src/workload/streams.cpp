#include "workload/streams.hpp"

#include <algorithm>
#include <optional>

#include "util/contract.hpp"
#include "util/rng.hpp"

namespace pair_ecc::workload {

std::string ToString(StreamKind kind) {
  switch (kind) {
    case StreamKind::kStream:         return "stream";
    case StreamKind::kRandom:         return "random";
    case StreamKind::kHotspot:        return "hotspot";
    case StreamKind::kLinear:         return "linear";
    case StreamKind::kStrided:        return "strided";
    case StreamKind::kTensorStream:   return "tensor";
    case StreamKind::kPointerChase:   return "pointer";
    case StreamKind::kBatchInference: return "batch";
  }
  return "unknown";
}

StreamKind StreamKindFromString(const std::string& name) {
  for (const StreamKind kind :
       {StreamKind::kStream, StreamKind::kRandom, StreamKind::kHotspot,
        StreamKind::kLinear, StreamKind::kStrided, StreamKind::kTensorStream,
        StreamKind::kPointerChase, StreamKind::kBatchInference})
    if (ToString(kind) == name) return kind;
  PAIR_CHECK(false, "unknown stream kind '"
                        << name
                        << "' (want stream|random|hotspot|linear|strided|"
                           "tensor|pointer|batch)");
  return StreamKind::kTensorStream;
}

void StreamConfig::Validate() const {
  PAIR_CHECK(!(num_requests == 0 || ranks == 0 || banks == 0 || rows == 0 ||
               cols == 0),
             "StreamConfig: zero-sized field");
  PAIR_CHECK(!(read_fraction < 0.0 || read_fraction > 1.0),
             "StreamConfig: read_fraction out of [0,1]");
  PAIR_CHECK(!(intensity <= 0.0 || intensity > 1.0),
             "StreamConfig: intensity out of (0,1]");
  PAIR_CHECK(burst_len != 0, "StreamConfig: burst_len must be nonzero");
  PAIR_CHECK(!(hot_rows == 0 || hot_rows > rows), "StreamConfig: bad hot_rows");
  PAIR_CHECK(!(kind == StreamKind::kStrided && stride == 0),
             "StreamConfig: stride must be nonzero");
}

namespace {

// One class covers every kind: the per-kind state is tiny and the switch
// keeps Reset() trivially exhaustive.
class SyntheticStream final : public timing::RequestSource {
 public:
  explicit SyntheticStream(const StreamConfig& config)
      : config_(config), rng_(config.seed) {
    config_.Validate();
    if (config_.kind == StreamKind::kLinear ||
        config_.kind == StreamKind::kStrided)
      mapper_.emplace(config_.banks, config_.rows, config_.cols,
                      config_.interleave, config_.xor_bank_hash);
  }

  bool Next(timing::Request& out) override {
    if (emitted_ >= config_.num_requests) return false;
    out = timing::Request{};
    switch (config_.kind) {
      case StreamKind::kTensorStream:
        if (burst_pos_ == config_.burst_len) {
          cycle_ += config_.gap_cycles;  // compute gap between tiles
          burst_pos_ = 0;
        }
        ++burst_pos_;
        [[fallthrough]];
      case StreamKind::kStream:
        AdvanceArrival(out);
        DrawOp(out);
        SequentialAddress(out);
        break;
      case StreamKind::kRandom:
        AdvanceArrival(out);
        DrawOp(out);
        RandomAddress(out);
        break;
      case StreamKind::kHotspot:
        AdvanceArrival(out);
        DrawOp(out);
        if (rng_.Bernoulli(config_.hot_fraction))
          HotRowAddress(out);
        else
          RandomAddress(out);
        break;
      case StreamKind::kLinear:
      case StreamKind::kStrided:
        AdvanceArrival(out);
        DrawOp(out);
        MappedAddress(out);
        break;
      case StreamKind::kPointerChase:   NextPointer(out); break;
      case StreamKind::kBatchInference: NextBatch(out); break;
    }
    ++emitted_;
    return true;
  }

  void Reset() override {
    rng_ = util::Xoshiro256(config_.seed);
    emitted_ = 0;
    cycle_ = 0;
    burst_pos_ = 0;
    s_bank_ = s_row_ = s_col_ = 0;
    phys_ = 0;
    chase_state_ = config_.seed;
    in_weight_phase_ = true;
  }

 private:
  /// Geometric inter-arrival with mean 1/intensity.
  void AdvanceArrival(timing::Request& req) {
    while (!rng_.Bernoulli(config_.intensity)) ++cycle_;
    req.arrival = cycle_;
  }

  void DrawOp(timing::Request& req) {
    req.op = rng_.Bernoulli(config_.read_fraction) ? timing::Op::kRead
                                                   : timing::Op::kWrite;
  }

  /// Sequential bank-interleaved walk: columns advance once the bank index
  /// wraps, rows once the columns do; ranks rotate with banks for maximal
  /// channel parallelism.
  void SequentialAddress(timing::Request& req) {
    req.addr = {s_bank_, s_row_, s_col_};
    req.rank = s_bank_ % config_.ranks;
    s_bank_ = (s_bank_ + 1) % config_.banks;
    if (s_bank_ == 0) {
      s_col_ = (s_col_ + 1) % config_.cols;
      if (s_col_ == 0) s_row_ = (s_row_ + 1) % config_.rows;
    }
  }

  void RandomAddress(timing::Request& req) {
    req.rank = static_cast<unsigned>(rng_.UniformBelow(config_.ranks));
    req.addr = {static_cast<unsigned>(rng_.UniformBelow(config_.banks)),
                static_cast<unsigned>(rng_.UniformBelow(config_.rows)),
                static_cast<unsigned>(rng_.UniformBelow(config_.cols))};
  }

  /// One of the `hot_rows` hot rows, each pinned to its own bank and rank.
  void HotRowAddress(timing::Request& req) {
    const auto hot = static_cast<unsigned>(rng_.UniformBelow(config_.hot_rows));
    req.rank = hot % config_.ranks;
    req.addr = {hot % config_.banks, hot,
                static_cast<unsigned>(rng_.UniformBelow(config_.cols))};
  }

  /// The next physical line through the mapper; capacity wraps move on to
  /// the next rank.
  void MappedAddress(timing::Request& req) {
    req.addr = mapper_->Map(phys_ % mapper_->Capacity());
    req.rank =
        static_cast<unsigned>((phys_ / mapper_->Capacity()) % config_.ranks);
    phys_ += config_.kind == StreamKind::kStrided ? config_.stride : 1;
  }

  void NextPointer(timing::Request& req) {
    // Each load depends on the previous: the gap is a round-trip, not an
    // offered load, and every access is a read at a hash-walked address.
    const auto mean_gap = static_cast<std::uint64_t>(1.0 / config_.intensity);
    cycle_ += std::max<std::uint64_t>(1, mean_gap) + rng_.UniformBelow(8);
    chase_state_ = util::SplitMix64::Mix(chase_state_ + 0x9e3779b97f4a7c15ull);
    req.arrival = cycle_;
    req.op = timing::Op::kRead;
    req.rank = static_cast<unsigned>((chase_state_ >> 52) % config_.ranks);
    req.addr = {static_cast<unsigned>(chase_state_ % config_.banks),
                static_cast<unsigned>((chase_state_ >> 20) % config_.rows),
                static_cast<unsigned>((chase_state_ >> 40) % config_.cols)};
  }

  void NextBatch(timing::Request& req) {
    if (burst_pos_ == config_.burst_len) {
      burst_pos_ = 0;
      if (in_weight_phase_) {
        in_weight_phase_ = false;  // straight into the activation phase
      } else {
        in_weight_phase_ = true;
        cycle_ += config_.gap_cycles;  // host gap between batches
      }
    }
    ++burst_pos_;
    AdvanceArrival(req);
    if (in_weight_phase_) {
      req.op = timing::Op::kRead;
      SequentialAddress(req);
      return;
    }
    // Activation phase: read/write a hot row set.
    DrawOp(req);
    HotRowAddress(req);
  }

  StreamConfig config_;
  util::Xoshiro256 rng_;
  std::uint64_t emitted_ = 0;
  std::uint64_t cycle_ = 0;
  unsigned burst_pos_ = 0;
  unsigned s_bank_ = 0, s_row_ = 0, s_col_ = 0;
  std::optional<dram::AddressMapper> mapper_;  ///< kLinear / kStrided only
  std::uint64_t phys_ = 0;
  std::uint64_t chase_state_ = 0;
  bool in_weight_phase_ = true;
};

}  // namespace

std::unique_ptr<timing::RequestSource> MakeStream(const StreamConfig& config) {
  auto stream = std::make_unique<SyntheticStream>(config);
  stream->Reset();  // one init path: construction == Reset()
  return stream;
}

}  // namespace pair_ecc::workload
