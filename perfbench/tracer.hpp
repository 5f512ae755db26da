// In-memory span tracer, the timing RequestSource decorator, and the small
// helpers the benchmark driver and its self-tests share.
//
// Spans are recorded by the driver around its own calls into each layer's
// public functions; nothing here reaches inside the libraries. A span's name
// is "<layer>.<what>", and a layer's self time is the time its spans cover
// minus the time covered by their child spans and by leaf work charged to
// them (the decorator charges every RequestSource::Next/Reset to the span
// that is open when it runs, as workload-layer time). Root spans partition
// the traced wall time, so the layer self times under a root add up to its
// duration exactly; whatever a root's own code does outside any child span
// is that root layer's self time.
//
// The tracer is single-threaded: traced replicas run the trial engine with
// one worker.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "timing/request_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  /// Leaf work (e.g. RequestSource pulls) charged while this span was the
  /// innermost open one.
  std::int64_t leaf_ns = 0;
};

struct SpanTotals {
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< durations minus child spans and charged leaves
  std::uint64_t count = 0;
};

struct LayerTime {
  double self_s = 0.0;
  std::uint64_t spans = 0;
};

/// The layer a span or leaf name belongs to: the part before the first '.'.
inline std::string LayerOf(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

class Tracer {
 public:
  int Begin(std::string name, std::int64_t t_ns) {
    spans_.push_back({std::move(name), t_ns, t_ns, current_, 0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void End(int id, std::int64_t t_ns) {
    spans_[static_cast<std::size_t>(id)].end_ns = t_ns;
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Charges `ns` of leaf work to the innermost open span (or, outside any
  /// span, to the wall time directly).
  void ChargeLeaf(std::int64_t ns) {
    if (current_ >= 0)
      spans_[static_cast<std::size_t>(current_)].leaf_ns += ns;
    else
      unspanned_leaf_ns_ += ns;
  }

  /// Records the totals of one leaf kind (called once per decorator).
  void AddLeafTotals(const std::string& name, std::int64_t ns,
                     std::uint64_t count) {
    SpanTotals& t = leaves_[name];
    t.total_s += static_cast<double>(ns) * 1e-9;
    t.self_s += static_cast<double>(ns) * 1e-9;
    t.count += count;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per-name totals over spans and leaf kinds.
  std::map<std::string, SpanTotals> Totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::map<std::string, SpanTotals> totals = leaves_;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      SpanTotals& t = totals[s.name];
      t.total_s += static_cast<double>(dur) * 1e-9;
      t.self_s += static_cast<double>(dur - child_ns[i] - s.leaf_ns) * 1e-9;
      ++t.count;
    }
    return totals;
  }

  /// Traced wall time: the durations of the root spans named `root` (all
  /// roots, plus leaf work outside any span, when `root` is empty).
  double WallSeconds(std::string_view root = {}) const {
    std::int64_t ns = root.empty() ? unspanned_leaf_ns_ : 0;
    for (const Span& s : spans_)
      if (s.parent < 0 && (root.empty() || s.name == root))
        ns += s.end_ns - s.start_ns;
    return static_cast<double>(ns) * 1e-9;
  }

  /// Self time and span count per layer under the root spans named `root`
  /// (all roots when empty); the self times sum to WallSeconds(root). Leaf
  /// work counts toward kLeafLayer.
  std::map<std::string, LayerTime> Layers(std::string_view root = {}) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    std::vector<std::size_t> root_of(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent < 0) {
        root_of[i] = i;
        continue;
      }
      const auto parent = static_cast<std::size_t>(s.parent);
      child_ns[parent] += s.end_ns - s.start_ns;
      root_of[i] = root_of[parent];
    }
    std::map<std::string, LayerTime> layers;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (!root.empty() && spans_[root_of[i]].name != root) continue;
      LayerTime& l = layers[LayerOf(s.name)];
      l.self_s +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i] - s.leaf_ns) *
          1e-9;
      ++l.spans;
      if (s.leaf_ns != 0)
        layers[kLeafLayer].self_s += static_cast<double>(s.leaf_ns) * 1e-9;
    }
    if (root.empty() && unspanned_leaf_ns_ != 0)
      layers[kLeafLayer].self_s +=
          static_cast<double>(unspanned_leaf_ns_) * 1e-9;
    return layers;
  }

  /// The layer of leaf work: the only leaf producer is TimedSource, whose
  /// RequestSource pulls belong to the workload layer.
  static constexpr const char* kLeafLayer = "workload";

 private:
  std::vector<Span> spans_;
  int current_ = -1;
  std::map<std::string, SpanTotals> leaves_;
  std::int64_t unspanned_leaf_ns_ = 0;
};

/// RAII span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, NowNs()) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_, NowNs());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Scope(Scope&&) = delete;
  Scope& operator=(Scope&&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Times every Next() and Reset() of the wrapped source, charges the time
/// to the open span, and reports the totals under `leaf` when destroyed.
/// It forwards the wrapped sequence unchanged.
class TimedSource final : public pair_ecc::timing::RequestSource {
 public:
  TimedSource(std::unique_ptr<pair_ecc::timing::RequestSource> inner,
              Tracer* tracer, std::string leaf)
      : inner_(std::move(inner)), tracer_(tracer), leaf_(std::move(leaf)) {}
  ~TimedSource() override {
    if (tracer_ != nullptr) tracer_->AddLeafTotals(leaf_, ns_, pulled_);
  }
  TimedSource(const TimedSource&) = delete;
  TimedSource& operator=(const TimedSource&) = delete;
  TimedSource(TimedSource&&) = delete;
  TimedSource& operator=(TimedSource&&) = delete;

  bool Next(pair_ecc::timing::Request& out) override {
    const std::int64_t t0 = NowNs();
    const bool ok = inner_->Next(out);
    Charge(NowNs() - t0);
    pulled_ += ok ? 1 : 0;
    return ok;
  }

  void Reset() override {
    const std::int64_t t0 = NowNs();
    inner_->Reset();
    Charge(NowNs() - t0);
  }

  std::uint64_t pulled() const noexcept { return pulled_; }

 private:
  void Charge(std::int64_t ns) {
    ns_ += ns;
    if (tracer_ != nullptr) tracer_->ChargeLeaf(ns);
  }

  std::unique_ptr<pair_ecc::timing::RequestSource> inner_;
  Tracer* tracer_;
  std::string leaf_;
  std::int64_t ns_ = 0;
  std::uint64_t pulled_ = 0;
};

/// Metric names: 1-64 characters from [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Median of `values` (by copy); 0 for an empty list.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
