// Resettable byte streams feeding the chunked trace parser: plain files,
// in-memory buffers, and transparently-decompressed gzip/zstd files behind
// a magic-byte sniffing opener.
//
// ByteSource is the compression seam: the streaming parser reads whatever
// bytes come out, so a multi-GB compressed trace decompresses on the fly
// in constant memory. Compression backends are compile-time gated on the
// toolchain (PAIR_HAVE_ZLIB / PAIR_HAVE_ZSTD); opening a compressed file
// without the matching backend fails with a clear std::runtime_error
// instead of misparsing bytes.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

namespace pair_ecc::workload {

class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Reads up to `max` bytes into `out`; returns the count, 0 at end of
  /// stream. Throws std::runtime_error on I/O or decompression errors.
  virtual std::size_t Read(char* out, std::size_t max) = 0;

  /// Rewinds to the beginning of the identical byte sequence.
  virtual void Reset() = 0;
};

/// Whole file, streamed (never loaded at once).
class FileByteSource final : public ByteSource {
 public:
  /// Throws std::runtime_error when the file cannot be opened.
  explicit FileByteSource(const std::string& path);
  ~FileByteSource() override;
  FileByteSource(const FileByteSource&) = delete;
  FileByteSource& operator=(const FileByteSource&) = delete;

  std::size_t Read(char* out, std::size_t max) override;
  void Reset() override;

 private:
  std::string path_;
  void* file_;  // FILE*, kept opaque so <cstdio> stays out of the header
};

/// An owned in-memory buffer (tests, fuzzing).
class MemoryByteSource final : public ByteSource {
 public:
  explicit MemoryByteSource(std::string bytes) : bytes_(std::move(bytes)) {}

  std::size_t Read(char* out, std::size_t max) override;
  void Reset() override { pos_ = 0; }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

/// True when the gzip/zlib backend (zlib) was compiled in.
bool GzipSupported() noexcept;

/// Wraps `inner` (a gzip or zlib stream) in an inflating reader. `name`
/// labels error messages. Throws std::runtime_error when built without
/// zlib.
std::unique_ptr<ByteSource> MakeInflateSource(std::unique_ptr<ByteSource> inner,
                                              const std::string& name);

/// Wraps `inner` (a zstd frame stream) in a decompressing reader. Throws
/// std::runtime_error when built without zstd.
std::unique_ptr<ByteSource> MakeZstdSource(std::unique_ptr<ByteSource> inner,
                                           const std::string& name);

/// Opens `path`, sniffs the first bytes, and returns a plain, inflating,
/// or zstd-decompressing source accordingly (gzip magic 1f 8b, zstd magic
/// 28 b5 2f fd). Throws std::runtime_error on open failure or when the
/// needed backend is not compiled in.
std::unique_ptr<ByteSource> OpenByteSource(const std::string& path);

/// Writes `bytes` to `path` as a gzip member (tests and trace tooling).
/// Throws std::runtime_error when built without zlib or on I/O failure.
void GzipWriteFile(const std::string& path, std::string_view bytes);

}  // namespace pair_ecc::workload
