//===- Hash.h - The shared 64-bit avalanche ---------------------*- C++ -*-===//

#ifndef HEXTILE_SUPPORT_HASH_H
#define HEXTILE_SUPPORT_HASH_H

#include <cstdint>

namespace hextile {

/// The 64-bit finalizer of MurmurHash3: the one mixer behind every seeded
/// serialization of a replay (the equal-key shuffle and exec::permuteBlock),
/// so a logged seed replays the same order, and the finish of each
/// service::CompileKey stream.
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdull;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ull;
  X ^= X >> 33;
  return X;
}

} // namespace hextile

#endif // HEXTILE_SUPPORT_HASH_H
