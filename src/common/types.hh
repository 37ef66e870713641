/**
 * @file
 * Fundamental scalar types shared across the simulator.
 */

#ifndef SCSIM_COMMON_TYPES_HH
#define SCSIM_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace scsim {

/** Simulation time, measured in core clock cycles. */
using Cycle = std::uint64_t;

/** Sentinel for "no cycle" / "not scheduled". */
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/** Architectural register index within a warp's register window. */
using RegIndex = std::int16_t;

/** Sentinel register index meaning "no register operand". */
inline constexpr RegIndex kNoReg = -1;

/** Architectural registers per thread: every index is below this. */
inline constexpr int kMaxRegs = 256;

/** Warp-slot index inside an SM (0 .. maxWarpsPerSm-1). */
using WarpSlot = std::int32_t;

/** Sentinel warp slot. */
inline constexpr WarpSlot kNoWarp = -1;

/** Threads per warp; fixed at 32 across every modeled generation. */
inline constexpr int kWarpSize = 32;

/** Bytes per architectural register per thread. */
inline constexpr int kRegBytes = 4;

/** Device memory address. */
using Addr = std::uint64_t;

} // namespace scsim

#endif // SCSIM_COMMON_TYPES_HH
