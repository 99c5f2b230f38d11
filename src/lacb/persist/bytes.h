#ifndef LACB_PERSIST_BYTES_H_
#define LACB_PERSIST_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/common/status.h"

namespace lacb::persist {

// Little-endian binary encoder. Doubles are encoded bit-exactly (their
// IEEE-754 representation is memcpy'd), so a round trip reproduces the
// value to the last bit — a requirement for the bit-identical restore gate.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void I64(int64_t v) { AppendRaw(&v, sizeof(v)); }
  void F64(double v) { AppendRaw(&v, sizeof(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }
  void VecF64(const std::vector<double>& v) {
    U64(v.size());
    if (!v.empty()) AppendRaw(v.data(), v.size() * sizeof(double));
  }
  void VecI64(const std::vector<int64_t>& v) {
    U64(v.size());
    if (!v.empty()) AppendRaw(v.data(), v.size() * sizeof(int64_t));
  }
  void VecU64(const std::vector<uint64_t>& v) {
    U64(v.size());
    if (!v.empty()) AppendRaw(v.data(), v.size() * sizeof(uint64_t));
  }

  const std::string& bytes() const { return buf_; }
  std::string Release() { return std::move(buf_); }

 private:
  void AppendRaw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

// Bounds-checked decoder over a byte span. Every read returns a Result so a
// truncated or corrupt payload surfaces as a Status instead of UB.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& s) : ByteReader(s.data(), s.size()) {}

  Result<uint8_t> U8() {
    LACB_RETURN_NOT_OK(Need(1));
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint32_t> U32() { return Fixed<uint32_t>(); }
  Result<uint64_t> U64() { return Fixed<uint64_t>(); }
  Result<int64_t> I64() { return Fixed<int64_t>(); }
  Result<double> F64() { return Fixed<double>(); }
  Result<bool> Bool() {
    LACB_ASSIGN_OR_RETURN(uint8_t v, U8());
    return v != 0;
  }
  Result<std::string> Str() {
    LACB_ASSIGN_OR_RETURN(uint64_t n, U64());
    LACB_RETURN_NOT_OK(Need(n));
    std::string out(data_ + pos_, n);
    pos_ += n;
    return out;
  }
  Result<std::vector<double>> VecF64() { return FixedVec<double>(); }
  Result<std::vector<int64_t>> VecI64() { return FixedVec<int64_t>(); }
  Result<std::vector<uint64_t>> VecU64() { return FixedVec<uint64_t>(); }

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

 private:
  Status Need(uint64_t n) const {
    if (n > size_ - pos_) {
      return Status::OutOfRange("byte stream truncated");
    }
    return Status::OK();
  }
  template <typename T>
  Result<T> Fixed() {
    LACB_RETURN_NOT_OK(Need(sizeof(T)));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  Result<std::vector<T>> FixedVec() {
    LACB_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > (size_ - pos_) / sizeof(T)) {
      return Status::OutOfRange("byte stream truncated");
    }
    std::vector<T> out(n);
    if (n > 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// CRC-32 (reflected, polynomial 0xEDB88320, the zlib/PNG variant).
// Crc32("123456789") == 0xCBF43926.
uint32_t Crc32(const char* data, size_t size);
inline uint32_t Crc32(const std::string& s) { return Crc32(s.data(), s.size()); }

// Atomic durable write: writes to `<path>.tmp.<pid>`, fsyncs, renames onto
// `path`, and fsyncs the containing directory so the rename itself is
// durable. A crash mid-write can never leave a torn file at `path`.
Status WriteFileAtomic(const std::string& path, const std::string& data,
                       bool do_fsync = true);

Result<std::string> ReadFile(const std::string& path);

}  // namespace lacb::persist

#endif  // LACB_PERSIST_BYTES_H_
