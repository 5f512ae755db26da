#include "workload/byte_source.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/contract.hpp"

#if PAIR_HAVE_ZLIB
#include <zlib.h>
#endif
#if PAIR_HAVE_ZSTD
#include <zstd.h>
#endif

namespace pair_ecc::workload {

FileByteSource::FileByteSource(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "rb")) {
  if (file_ == nullptr)
    throw std::runtime_error("FileByteSource: cannot open " + path);
}

FileByteSource::~FileByteSource() {
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

std::size_t FileByteSource::Read(char* out, std::size_t max) {
  auto* f = static_cast<std::FILE*>(file_);
  const std::size_t n = std::fread(out, 1, max, f);
  if (n < max && std::ferror(f) != 0)
    throw std::runtime_error("FileByteSource: read error on " + path_);
  return n;
}

void FileByteSource::Reset() {
  auto* f = static_cast<std::FILE*>(file_);
  if (std::fseek(f, 0, SEEK_SET) != 0)
    throw std::runtime_error("FileByteSource: cannot rewind " + path_);
  std::clearerr(f);
}

std::size_t MemoryByteSource::Read(char* out, std::size_t max) {
  const std::size_t n = std::min(max, bytes_.size() - pos_);
  std::memcpy(out, bytes_.data() + pos_, n);
  pos_ += n;
  return n;
}

bool GzipSupported() noexcept {
#if PAIR_HAVE_ZLIB
  return true;
#else
  return false;
#endif
}

#if PAIR_HAVE_ZLIB
namespace {

// Streaming inflate over any ByteSource. windowBits 15+32 auto-detects the
// gzip or zlib wrapper; concatenated gzip members decode back to back the
// way `zcat` does.
class InflateSource final : public ByteSource {
 public:
  InflateSource(std::unique_ptr<ByteSource> inner, std::string name)
      : inner_(std::move(inner)), name_(std::move(name)), in_(1u << 16) {
    PAIR_CHECK(inner_ != nullptr, "InflateSource: null inner source");
    Init();
  }
  ~InflateSource() override { inflateEnd(&z_); }

  std::size_t Read(char* out, std::size_t max) override {
    if (max == 0 || finished_) return 0;
    z_.next_out = reinterpret_cast<Bytef*>(out);
    z_.avail_out = static_cast<uInt>(max);
    while (z_.avail_out > 0 && !finished_) {
      if (z_.avail_in == 0 && !in_eof_) {
        const std::size_t n = inner_->Read(in_.data(), in_.size());
        if (n == 0) in_eof_ = true;
        z_.next_in = reinterpret_cast<Bytef*>(in_.data());
        z_.avail_in = static_cast<uInt>(n);
      }
      const int rc = inflate(&z_, Z_NO_FLUSH);
      if (rc == Z_STREAM_END) {
        // Possibly a concatenated next member: peek ahead before deciding,
        // so a clean end-of-file is the end of the stream and any further
        // bytes restart inflation the way `zcat` handles member chains.
        if (z_.avail_in == 0 && !in_eof_) {
          const std::size_t n = inner_->Read(in_.data(), in_.size());
          if (n == 0) in_eof_ = true;
          z_.next_in = reinterpret_cast<Bytef*>(in_.data());
          z_.avail_in = static_cast<uInt>(n);
        }
        if (z_.avail_in == 0 && in_eof_) {
          finished_ = true;
        } else if (inflateReset2(&z_, 15 + 32) != Z_OK) {
          Fail("inflate reset failed");
        }
        continue;
      }
      if (rc == Z_OK) {
        if (z_.avail_in == 0 && in_eof_ && z_.avail_out > 0)
          Fail("truncated compressed stream");
        continue;
      }
      if (rc == Z_BUF_ERROR && z_.avail_in == 0 && in_eof_)
        Fail("truncated compressed stream");
      Fail(z_.msg != nullptr ? z_.msg : "inflate error");
    }
    return max - z_.avail_out;
  }

  void Reset() override {
    inner_->Reset();
    inflateEnd(&z_);
    Init();
  }

 private:
  void Init() {
    std::memset(&z_, 0, sizeof(z_));
    if (inflateInit2(&z_, 15 + 32) != Z_OK)
      throw std::runtime_error(name_ + ": inflateInit failed");
    in_eof_ = false;
    finished_ = false;
  }
  [[noreturn]] void Fail(const std::string& what) {
    throw std::runtime_error(name_ + ": corrupt compressed stream (" + what +
                             ")");
  }

  std::unique_ptr<ByteSource> inner_;
  std::string name_;
  std::vector<char> in_;
  z_stream z_{};
  bool in_eof_ = false;
  bool finished_ = false;
};

}  // namespace
#endif  // PAIR_HAVE_ZLIB

#if PAIR_HAVE_ZSTD
namespace {

class ZstdSource final : public ByteSource {
 public:
  ZstdSource(std::unique_ptr<ByteSource> inner, std::string name)
      : inner_(std::move(inner)),
        name_(std::move(name)),
        dctx_(ZSTD_createDCtx()),
        in_(ZSTD_DStreamInSize()) {
    PAIR_CHECK(inner_ != nullptr, "ZstdSource: null inner source");
    if (dctx_ == nullptr)
      throw std::runtime_error(name_ + ": ZSTD_createDCtx failed");
  }
  ~ZstdSource() override { ZSTD_freeDCtx(dctx_); }

  std::size_t Read(char* out, std::size_t max) override {
    ZSTD_outBuffer ob{out, max, 0};
    while (ob.pos < ob.size) {
      if (ib_.pos >= ib_.size && !in_eof_) {
        const std::size_t n = inner_->Read(in_.data(), in_.size());
        if (n == 0) in_eof_ = true;
        ib_ = ZSTD_inBuffer{in_.data(), n, 0};
      }
      if (ib_.pos >= ib_.size && in_eof_) {
        if (mid_frame_)
          throw std::runtime_error(name_ +
                                   ": corrupt compressed stream "
                                   "(truncated zstd frame)");
        break;
      }
      const std::size_t rc = ZSTD_decompressStream(dctx_, &ob, &ib_);
      if (ZSTD_isError(rc) != 0)
        throw std::runtime_error(name_ + ": corrupt compressed stream (" +
                                 ZSTD_getErrorName(rc) + ")");
      mid_frame_ = rc != 0;
    }
    return ob.pos;
  }

  void Reset() override {
    inner_->Reset();
    ZSTD_DCtx_reset(dctx_, ZSTD_reset_session_only);
    ib_ = ZSTD_inBuffer{nullptr, 0, 0};
    in_eof_ = false;
    mid_frame_ = false;
  }

 private:
  std::unique_ptr<ByteSource> inner_;
  std::string name_;
  ZSTD_DCtx* dctx_;
  std::vector<char> in_;
  ZSTD_inBuffer ib_{nullptr, 0, 0};
  bool in_eof_ = false;
  bool mid_frame_ = false;
};

}  // namespace
#endif  // PAIR_HAVE_ZSTD

std::unique_ptr<ByteSource> MakeInflateSource(std::unique_ptr<ByteSource> inner,
                                              const std::string& name) {
#if PAIR_HAVE_ZLIB
  return std::make_unique<InflateSource>(std::move(inner), name);
#else
  (void)inner;
  throw std::runtime_error(name +
                           ": gzip-compressed traces need zlib, which this "
                           "build does not have");
#endif
}

std::unique_ptr<ByteSource> MakeZstdSource(std::unique_ptr<ByteSource> inner,
                                           const std::string& name) {
#if PAIR_HAVE_ZSTD
  return std::make_unique<ZstdSource>(std::move(inner), name);
#else
  (void)inner;
  throw std::runtime_error(name +
                           ": zstd-compressed traces need libzstd headers, "
                           "which this build does not have");
#endif
}

namespace {

enum class Sniff : std::uint8_t { kPlain, kGzip, kZstd };

Sniff SniffMagic(ByteSource& source) {
  unsigned char magic[4] = {0, 0, 0, 0};
  std::size_t got = 0;
  while (got < sizeof(magic)) {
    const std::size_t n = source.Read(reinterpret_cast<char*>(magic) + got,
                                      sizeof(magic) - got);
    if (n == 0) break;
    got += n;
  }
  source.Reset();
  if (got >= 2 && magic[0] == 0x1f && magic[1] == 0x8b) return Sniff::kGzip;
  if (got >= 4 && magic[0] == 0x28 && magic[1] == 0xb5 && magic[2] == 0x2f &&
      magic[3] == 0xfd)
    return Sniff::kZstd;
  return Sniff::kPlain;
}

}  // namespace

std::unique_ptr<ByteSource> OpenByteSource(const std::string& path) {
  auto file = std::make_unique<FileByteSource>(path);
  switch (SniffMagic(*file)) {
    case Sniff::kGzip: return MakeInflateSource(std::move(file), path);
    case Sniff::kZstd: return MakeZstdSource(std::move(file), path);
    case Sniff::kPlain: break;
  }
  return file;
}

void GzipWriteFile(const std::string& path, std::string_view bytes) {
#if PAIR_HAVE_ZLIB
  gzFile f = gzopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("GzipWriteFile: cannot open " + path);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const unsigned chunk = static_cast<unsigned>(
        std::min<std::size_t>(bytes.size() - written, 1u << 20));
    const int n = gzwrite(f, bytes.data() + written, chunk);
    if (n <= 0) {
      gzclose(f);
      throw std::runtime_error("GzipWriteFile: write error on " + path);
    }
    written += static_cast<std::size_t>(n);
  }
  if (gzclose(f) != Z_OK)
    throw std::runtime_error("GzipWriteFile: close error on " + path);
#else
  (void)bytes;
  throw std::runtime_error("GzipWriteFile: " + path +
                           ": gzip output needs zlib, which this build does "
                           "not have");
#endif
}

}  // namespace pair_ecc::workload
