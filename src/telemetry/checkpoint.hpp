// Versioned, checksummed campaign checkpoints.
//
// A checkpoint is the durable form of a campaign slice's accumulator state
// (see sim/campaign.hpp for the body layout). This layer owns the envelope
// only — sealing a JSON body with a CRC, writing it atomically, and
// validating/unsealing it on read:
//
//   {
//     "schema": "pair-checkpoint",
//     "schema_version": 1,
//     "crc32": "<Crc32Hex of the body's serialized form>",
//     "body": { ... }
//   }
//
// The CRC is computed over body.Dump(). JsonValue serialization is
// deterministic (insertion-ordered keys, to_chars numbers), and the parser
// round-trips exactly what the writer emits, so re-serializing the parsed
// body reproduces the signed bytes — any flipped bit inside the body
// changes the re-dump and fails the check, without a second raw-bytes pass
// over the file. Combined with util::AtomicWriteFile, a reader sees the
// old checkpoint, the new checkpoint, or a distinct diagnostic — never a
// torn state that silently poisons a merged campaign.
//
// Every validation failure throws std::runtime_error with a distinct
// message class (unreadable / malformed JSON / wrong schema / unsupported
// version / checksum mismatch) so operators can tell truncation from
// corruption from version skew; config-hash mismatches are the campaign
// layer's job (it knows the run parameters).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace pair_ecc::telemetry {

inline constexpr std::string_view kCheckpointSchema = "pair-checkpoint";
inline constexpr std::int64_t kCheckpointSchemaVersion = 1;

/// Wraps `body` in the checksummed envelope above.
JsonValue SealCheckpoint(const JsonValue& body);

/// Validates `envelope` and returns a copy of its body. `source` names the
/// document in diagnostics (usually the file path). Throws
/// std::runtime_error with a distinct message per failure class.
JsonValue OpenCheckpoint(const JsonValue& envelope, const std::string& source);

/// Reads, parses, and unseals a checkpoint file. Throws std::runtime_error:
/// "cannot read ..." for I/O failures, "... malformed JSON ..." for
/// truncated/garbled files, and OpenCheckpoint's diagnostics beyond that.
JsonValue ReadCheckpointFile(const std::string& path);

/// Seals `body` and atomically replaces `path` with it
/// (util::AtomicWriteFile: write-temp-fsync-rename).
void WriteCheckpointFile(const JsonValue& body, const std::string& path);

// ---- helpers shared by the campaign state (de)serializers ----

/// {"bounds": [...], "counts": [...], "sum": n} — the same shape the
/// pair-report "histograms" section uses.
JsonValue HistogramToJson(const Histogram& histogram);
Histogram HistogramFromJson(const JsonValue& value, const std::string& what);

/// A JSON array of counts, and back. The reader throws "<what>: ..."
/// unless `value` is an array of non-negative integers.
JsonValue CountsToJson(std::span<const std::uint64_t> counts);
std::vector<std::uint64_t> CountsFromJson(const JsonValue& value,
                                          const std::string& what);

/// Typed required-field lookups; throw std::runtime_error
/// "<what>: missing field '<key>'" / "<what>: field '<key>' has the wrong
/// type" so a hand-edited or version-skewed body fails loudly.
const JsonValue& RequireField(const JsonValue& object, std::string_view key,
                              const std::string& what);
std::uint64_t RequireU64(const JsonValue& object, std::string_view key,
                         const std::string& what);
std::string RequireString(const JsonValue& object, std::string_view key,
                          const std::string& what);

}  // namespace pair_ecc::telemetry
