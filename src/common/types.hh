/**
 * @file
 * Fundamental scalar types shared by every EDE module.
 *
 * The simulator measures time in core clock cycles ("Cycle") and
 * identifies dynamic instructions by a monotonically increasing
 * sequence number ("SeqNum").  Memory is byte addressable with 64-bit
 * addresses ("Addr").
 */

#ifndef EDE_COMMON_TYPES_HH
#define EDE_COMMON_TYPES_HH

#include <concepts>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace ede {

/** Core clock cycle count. */
using Cycle = std::uint64_t;

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Dynamic instruction sequence number (1-based; 0 means "none"). */
using SeqNum = std::uint64_t;

/** Architectural register index. */
using RegIndex = std::uint8_t;

/** Sentinel for "no cycle" / "not yet scheduled". */
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/** Sentinel for "no sequence number". */
inline constexpr SeqNum kNoSeq = 0;

/** Sentinel for "no address". */
inline constexpr Addr kNoAddr = std::numeric_limits<Addr>::max();

/** Sentinel for "no register operand". */
inline constexpr RegIndex kNoReg = 0xff;

/** Number of general purpose registers modelled (x0..x30 + xzr). */
inline constexpr int kNumArchRegs = 32;

/** Index of the always-zero register (xzr). */
inline constexpr RegIndex kZeroReg = 31;

/**
 * S is R or const R.  A record's field list is written once, as
 * `template <FieldsOf<R> S, class V> void visitFields(S &s, V &&v)`
 * calling v(name, field) per field, so the one list serves code that
 * reads a record (a writer, a comparison) and code that fills one (a
 * reader).
 */
template <class S, class R>
concept FieldsOf = std::same_as<std::remove_const_t<S>, R>;

} // namespace ede

#endif // EDE_COMMON_TYPES_HH
