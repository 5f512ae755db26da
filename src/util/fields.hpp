// Field tables: a counter struct lists its members once, in
// `static constexpr auto kFields = std::tuple{util::Field{...}, ...};`,
// and its merge (MergeFields), checkpoint JSON and report counters
// (telemetry/fields.hpp) all walk that list. Adding a counter is one line.
//
// An entry names the member, its checkpoint key (table order is key order)
// and its report name under the enclosing prefix (the key by default). The
// member's type picks the kind: a std::uint64_t counter; a struct with its
// own kFields, whose names `name` prefixes; a histogram, merged by its own
// +=; or a std::array of counters, positional in checkpoints and reported
// as name + element_name(i).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <tuple>

namespace pair_ecc::util {

template <typename S, typename M>
struct Field {
  M S::*member;
  std::string_view key;
  std::string_view name = key;
  /// Arrays only: entry i's report suffix, and what one entry stands for.
  std::string (*element_name)(std::size_t) = nullptr;
  std::string_view element_noun = {};
};

template <typename T>
concept HasFields = requires { T::kFields; };

template <HasFields T, typename Fn>
constexpr void ForEachField(Fn&& fn) {
  std::apply([&fn](const auto&... entry) { (fn(entry), ...); }, T::kFields);
}

/// Fieldwise `into += from`, the shard reduce's order-independent merge.
template <HasFields T>
constexpr T& MergeFields(T& into, const T& from) {
  ForEachField<T>([&](const auto& f) {
    auto& a = into.*f.member;
    const auto& b = from.*f.member;
    if constexpr (requires { a += b; })
      a += b;
    else
      for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  });
  return into;
}

}  // namespace pair_ecc::util
