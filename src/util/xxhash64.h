// XXH64 (the 64-bit xxHash), implemented from the public algorithm
// specification. Used for the snapshot v2 per-region integrity checksums:
// fast enough to hash a multi-GB filter slab at memory speed, and with a
// streaming flavor so the writer can checksum the slab while emitting it
// block by block instead of materializing a second copy.
//
// Both ends of the snapshot format use this one implementation, so the
// contract that matters is self-consistency; the output nevertheless
// matches the reference xxHash vectors (see xxhash_test.cpp), which keeps
// the files inspectable with standard tooling.
#ifndef BLOOMSAMPLE_UTIL_XXHASH64_H_
#define BLOOMSAMPLE_UTIL_XXHASH64_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace bloomsample {

class XxHash64 {
 public:
  explicit XxHash64(uint64_t seed = 0) { Reset(seed); }

  void Reset(uint64_t seed = 0) {
    seed_ = seed;
    v1_ = seed + kPrime1 + kPrime2;
    v2_ = seed + kPrime2;
    v3_ = seed;
    v4_ = seed - kPrime1;
    total_len_ = 0;
    buffered_ = 0;
  }

  /// Feeds `len` bytes. Equivalent byte streams yield equal digests no
  /// matter how they are split across Update calls.
  void Update(const void* data, size_t len) {
    // An empty update may come with a null pointer (an empty vector's
    // data()), which memcpy must never see.
    if (len == 0) return;
    const uint8_t* p = static_cast<const uint8_t*>(data);
    total_len_ += len;

    if (buffered_ + len < sizeof(buffer_)) {
      std::memcpy(buffer_ + buffered_, p, len);
      buffered_ += len;
      return;
    }
    if (buffered_ > 0) {
      const size_t fill = sizeof(buffer_) - buffered_;
      std::memcpy(buffer_ + buffered_, p, fill);
      ProcessStripe(buffer_);
      p += fill;
      len -= fill;
      buffered_ = 0;
    }
    while (len >= sizeof(buffer_)) {
      ProcessStripe(p);
      p += sizeof(buffer_);
      len -= sizeof(buffer_);
    }
    std::memcpy(buffer_, p, len);
    buffered_ = len;
  }

  /// Digest of everything fed since Reset. Does not consume the state:
  /// more Updates may follow and Digest may be called again.
  uint64_t Digest() const {
    uint64_t h;
    if (total_len_ >= sizeof(buffer_)) {
      h = RotL(v1_, 1) + RotL(v2_, 7) + RotL(v3_, 12) + RotL(v4_, 18);
      h = MergeRound(h, v1_);
      h = MergeRound(h, v2_);
      h = MergeRound(h, v3_);
      h = MergeRound(h, v4_);
    } else {
      h = seed_ + kPrime5;
    }
    h += total_len_;

    const uint8_t* p = buffer_;
    size_t len = buffered_;
    while (len >= 8) {
      h ^= Round(0, Read64(p));
      h = RotL(h, 27) * kPrime1 + kPrime4;
      p += 8;
      len -= 8;
    }
    if (len >= 4) {
      h ^= static_cast<uint64_t>(Read32(p)) * kPrime1;
      h = RotL(h, 23) * kPrime2 + kPrime3;
      p += 4;
      len -= 4;
    }
    while (len > 0) {
      h ^= static_cast<uint64_t>(*p) * kPrime5;
      h = RotL(h, 11) * kPrime1;
      ++p;
      --len;
    }

    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
  }

  /// One-shot convenience.
  static uint64_t Hash(const void* data, size_t len, uint64_t seed = 0) {
    XxHash64 hasher(seed);
    hasher.Update(data, len);
    return hasher.Digest();
  }

 private:
  static constexpr uint64_t kPrime1 = 11400714785074694791ULL;
  static constexpr uint64_t kPrime2 = 14029467366897019727ULL;
  static constexpr uint64_t kPrime3 = 1609587929392839161ULL;
  static constexpr uint64_t kPrime4 = 9650029242287828579ULL;
  static constexpr uint64_t kPrime5 = 2870177450012600261ULL;

  static uint64_t RotL(uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  }
  static uint64_t Read64(const uint8_t* p) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;  // metadata and slab are native little-endian on every
               // supported snapshot host (the format rejects cross-endian)
  }
  static uint32_t Read32(const uint8_t* p) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static uint64_t Round(uint64_t acc, uint64_t input) {
    acc += input * kPrime2;
    acc = RotL(acc, 31);
    return acc * kPrime1;
  }
  static uint64_t MergeRound(uint64_t h, uint64_t v) {
    h ^= Round(0, v);
    return h * kPrime1 + kPrime4;
  }

  void ProcessStripe(const uint8_t* p) {
    v1_ = Round(v1_, Read64(p));
    v2_ = Round(v2_, Read64(p + 8));
    v3_ = Round(v3_, Read64(p + 16));
    v4_ = Round(v4_, Read64(p + 24));
  }

  uint64_t seed_ = 0;
  uint64_t v1_, v2_, v3_, v4_;
  uint64_t total_len_ = 0;
  uint8_t buffer_[32];
  size_t buffered_ = 0;
};

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_UTIL_XXHASH64_H_
