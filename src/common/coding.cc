#include "common/coding.h"

namespace gamedb {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  buf[2] = static_cast<char>((v >> 16) & 0xFF);
  buf[3] = static_cast<char>((v >> 24) & 0xFF);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutFixed32(dst, static_cast<uint32_t>(v >> 32));
}

void PutFloat(std::string* dst, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed32(dst, bits);
}

void PutDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(dst, bits);
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

void PutVarintSigned64(std::string* dst, int64_t v) {
  // Zig-zag: interleave negative and non-negative values.
  uint64_t zz = (static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63);
  PutVarint64(dst, zz);
}

void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

Status Decoder::GetFixed32(uint32_t* v) {
  if (data_.size() < 4) return Status::Corruption("fixed32 underflow");
  const auto* p = reinterpret_cast<const unsigned char*>(data_.data());
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  data_.remove_prefix(4);
  return Status::OK();
}

Status Decoder::GetFixed64(uint64_t* v) {
  uint32_t lo = 0, hi = 0;
  GAMEDB_RETURN_NOT_OK(GetFixed32(&lo));
  GAMEDB_RETURN_NOT_OK(GetFixed32(&hi));
  *v = (static_cast<uint64_t>(hi) << 32) | lo;
  return Status::OK();
}

Status Decoder::GetFloat(float* v) {
  uint32_t bits = 0;
  GAMEDB_RETURN_NOT_OK(GetFixed32(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status Decoder::GetDouble(double* v) {
  uint64_t bits = 0;
  GAMEDB_RETURN_NOT_OK(GetFixed64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status Decoder::GetVarint64(uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (data_.empty()) return Status::Corruption("varint underflow");
    uint8_t byte = static_cast<uint8_t>(data_.front());
    data_.remove_prefix(1);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return Status::OK();
    }
  }
  return Status::Corruption("varint too long");
}

Status Decoder::GetVarintSigned64(int64_t* v) {
  uint64_t zz = 0;
  GAMEDB_RETURN_NOT_OK(GetVarint64(&zz));
  *v = static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
  return Status::OK();
}

Status Decoder::GetLengthPrefixed(std::string_view* s) {
  uint64_t len = 0;
  GAMEDB_RETURN_NOT_OK(GetVarint64(&len));
  return GetRaw(static_cast<size_t>(len), s);
}

Status Decoder::GetRaw(size_t n, std::string_view* s) {
  if (data_.size() < n) return Status::Corruption("raw bytes underflow");
  *s = data_.substr(0, n);
  data_.remove_prefix(n);
  return Status::OK();
}

}  // namespace gamedb
