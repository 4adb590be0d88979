// Little-endian integer primitives shared by the wire encodings
// (wire_format.cc) and the TCP framing (service.cc). Put* appends to a byte
// buffer; Get* reads from a pointer the caller has bounds-checked.

#ifndef WFM_WIRE_BYTE_ORDER_H_
#define WFM_WIRE_BYTE_ORDER_H_

#include <cstdint>
#include <vector>

namespace wfm {

inline void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

inline void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

inline std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

}  // namespace wfm

#endif  // WFM_WIRE_BYTE_ORDER_H_
