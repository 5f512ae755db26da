#include "telemetry/checkpoint.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"

namespace pair_ecc::telemetry {

JsonValue SealCheckpoint(const JsonValue& body) {
  JsonValue envelope = JsonValue::MakeObject();
  envelope.Set("schema", JsonValue(kCheckpointSchema));
  envelope.Set("schema_version", JsonValue(kCheckpointSchemaVersion));
  envelope.Set("crc32", JsonValue(util::Crc32Hex(body.Dump())));
  envelope.Set("body", body);
  return envelope;
}

JsonValue OpenCheckpoint(const JsonValue& envelope,
                         const std::string& source) {
  const auto fail = [&source](const std::string& what) {
    throw std::runtime_error("checkpoint '" + source + "': " + what);
  };
  if (envelope.kind() != JsonValue::Kind::kObject)
    fail("not a pair-checkpoint document (top level is not an object)");
  const JsonValue* schema = envelope.Find("schema");
  if (schema == nullptr || schema->kind() != JsonValue::Kind::kString ||
      schema->AsString() != kCheckpointSchema)
    fail("not a pair-checkpoint document (missing or wrong \"schema\")");
  const JsonValue* version = envelope.Find("schema_version");
  if (version == nullptr || version->kind() != JsonValue::Kind::kInt)
    fail("missing \"schema_version\"");
  if (version->AsInt() != kCheckpointSchemaVersion)
    fail("unsupported schema_version " + std::to_string(version->AsInt()) +
         " (this build reads version " +
         std::to_string(kCheckpointSchemaVersion) + ")");
  const JsonValue* crc = envelope.Find("crc32");
  if (crc == nullptr || crc->kind() != JsonValue::Kind::kString)
    fail("missing \"crc32\"");
  const JsonValue* body = envelope.Find("body");
  if (body == nullptr || body->kind() != JsonValue::Kind::kObject)
    fail("missing \"body\"");
  const std::string computed = util::Crc32Hex(body->Dump());
  if (computed != crc->AsString())
    fail("checksum mismatch (stored " + crc->AsString() + ", computed " +
         computed + ") — the file is corrupt");
  return *body;
}

JsonValue ReadCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read checkpoint '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonValue envelope;
  try {
    envelope = JsonValue::Parse(buf.str());
  } catch (const std::exception& e) {
    throw std::runtime_error("checkpoint '" + path + "': malformed JSON (" +
                             e.what() + ") — the file is truncated or corrupt");
  }
  return OpenCheckpoint(envelope, path);
}

void WriteCheckpointFile(const JsonValue& body, const std::string& path) {
  util::AtomicWriteFile(path, SealCheckpoint(body).Dump());
}

JsonValue HistogramToJson(const Histogram& histogram) {
  JsonValue entry = JsonValue::MakeObject();
  entry.Set("bounds", CountsToJson(histogram.bounds()));
  entry.Set("counts", CountsToJson(histogram.counts()));
  entry.Set("sum", JsonValue(histogram.Sum()));
  return entry;
}

Histogram HistogramFromJson(const JsonValue& value, const std::string& what) {
  if (value.kind() != JsonValue::Kind::kObject)
    throw std::runtime_error(what + ": not an object");
  const auto counts_of = [&](std::string_view key) {
    return CountsFromJson(RequireField(value, key, what),
                          what + ": field '" + std::string(key) + "'");
  };
  std::vector<std::uint64_t> bounds = counts_of("bounds");
  std::vector<std::uint64_t> counts = counts_of("counts");
  const std::uint64_t sum = RequireU64(value, "sum", what);
  if (!counts.empty() && counts.size() != bounds.size() + 1)
    throw std::runtime_error(what + ": counts/bounds size mismatch");
  return Histogram::FromParts(std::move(bounds), std::move(counts), sum);
}

// PAIR_ANALYZE_ALLOW(CON-SPAN: whole-span iteration, any extent is legal)
JsonValue CountsToJson(std::span<const std::uint64_t> counts) {
  JsonValue array = JsonValue::MakeArray();
  for (const std::uint64_t n : counts) array.Append(JsonValue(n));
  return array;
}

std::vector<std::uint64_t> CountsFromJson(const JsonValue& value,
                                          const std::string& what) {
  if (value.kind() != JsonValue::Kind::kArray)
    throw std::runtime_error(what + ": expected an array");
  std::vector<std::uint64_t> out;
  out.reserve(value.AsArray().size());
  for (const JsonValue& entry : value.AsArray()) {
    if (entry.kind() != JsonValue::Kind::kInt || entry.AsInt() < 0)
      throw std::runtime_error(what +
                               ": entries must be non-negative integers");
    out.push_back(static_cast<std::uint64_t>(entry.AsInt()));
  }
  return out;
}

const JsonValue& RequireField(const JsonValue& object, std::string_view key,
                              const std::string& what) {
  if (object.kind() != JsonValue::Kind::kObject)
    throw std::runtime_error(what + ": not an object");
  const JsonValue* found = object.Find(key);
  if (found == nullptr)
    throw std::runtime_error(what + ": missing field '" + std::string(key) +
                             "'");
  return *found;
}

std::uint64_t RequireU64(const JsonValue& object, std::string_view key,
                         const std::string& what) {
  const JsonValue& v = RequireField(object, key, what);
  if (v.kind() != JsonValue::Kind::kInt || v.AsInt() < 0)
    throw std::runtime_error(what + ": field '" + std::string(key) +
                             "' has the wrong type (expected a count)");
  return static_cast<std::uint64_t>(v.AsInt());
}

std::string RequireString(const JsonValue& object, std::string_view key,
                          const std::string& what) {
  const JsonValue& v = RequireField(object, key, what);
  if (v.kind() != JsonValue::Kind::kString)
    throw std::runtime_error(what + ": field '" + std::string(key) +
                             "' has the wrong type (expected a string)");
  return v.AsString();
}

}  // namespace pair_ecc::telemetry
