// The scheme factory: a plain table over the closed SchemeKind enum. It
// lives in src/core (not src/ecc) because PairScheme sits above the
// baseline-scheme library in the layering; the baselines' constructors
// come from ecc/schemes_internal.hpp.
#include <cstddef>
#include <iterator>

#include "core/pair_scheme.hpp"
#include "ecc/scheme.hpp"
#include "ecc/schemes_internal.hpp"
#include "util/contract.hpp"

namespace pair_ecc::ecc {

std::span<const SchemeKind> AllSchemeKinds() noexcept {
  static constexpr SchemeKind kKinds[] = {
      SchemeKind::kNoEcc,      SchemeKind::kIecc,  SchemeKind::kSecDed,
      SchemeKind::kIeccSecDed, SchemeKind::kXed,   SchemeKind::kDuo,
      SchemeKind::kPair2,      SchemeKind::kPair4, SchemeKind::kPair4SecDed,
  };
  static_assert(std::size(kKinds) ==
                    static_cast<std::size_t>(SchemeKind::kPair4SecDed) + 1,
                "one table entry per SchemeKind");
  return kKinds;
}

std::unique_ptr<Scheme> MakeScheme(SchemeKind kind, dram::Rank& rank) {
  switch (kind) {
    case SchemeKind::kNoEcc:      return MakeNoEcc(rank);
    case SchemeKind::kIecc:       return MakeIecc(rank);
    case SchemeKind::kSecDed:     return MakeRankSecDed(rank, MakeNoEcc(rank));
    case SchemeKind::kIeccSecDed: return MakeRankSecDed(rank, MakeIecc(rank));
    case SchemeKind::kXed:        return MakeXed(rank);
    case SchemeKind::kDuo:        return MakeDuo(rank);
    case SchemeKind::kPair2:
      return std::make_unique<core::PairScheme>(rank,
                                                core::PairConfig::Pair2());
    case SchemeKind::kPair4:
      return std::make_unique<core::PairScheme>(rank,
                                                core::PairConfig::Pair4());
    case SchemeKind::kPair4SecDed:
      return MakeRankSecDed(rank, std::make_unique<core::PairScheme>(
                                      rank, core::PairConfig::Pair4()));
  }
  PAIR_UNREACHABLE("unknown SchemeKind " << static_cast<int>(kind));
}

}  // namespace pair_ecc::ecc
