/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant) used to
 * integrity-check on-disk trace and store files.
 *
 * The implementation is slicing-by-8: eight table lookups fold eight
 * input bytes per step, with a byte-at-a-time tail. It returns the
 * same values as the classic one-lookup-per-byte loop (frozen in
 * tests/reference_crc32.hh) for every length, alignment and chunking.
 */

#ifndef STEMS_COMMON_CRC32_HH
#define STEMS_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace stems {

/**
 * Incrementally extend a CRC-32 over a byte range.
 *
 * @param crc   running checksum; pass 0 for the first chunk.
 * @param data  bytes to fold in.
 * @param len   number of bytes.
 * @return the updated checksum; feed it back in for the next chunk.
 */
std::uint32_t crc32Update(std::uint32_t crc, const void *data,
                          std::size_t len);

/** One-shot CRC-32 of a byte range. */
inline std::uint32_t
crc32(const void *data, std::size_t len)
{
    return crc32Update(0, data, len);
}

} // namespace stems

#endif // STEMS_COMMON_CRC32_HH
