/**
 * @file
 * Reference oracle for CRC-32 property tests.
 *
 * A frozen copy of crc32Update as it was before slicing-by-8: one
 * table lookup per input byte over the reflected 0xEDB88320
 * polynomial. Every trace file and store entry on disk carries a CRC
 * this function computed, so the live implementation must return
 * exactly what this one does for every input, alignment and chunking
 * (common_test.cc checks it). Do not "improve" this file — its value
 * is that it is the old behaviour, frozen.
 */

#ifndef STEMS_TESTS_REFERENCE_CRC32_HH
#define STEMS_TESTS_REFERENCE_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace stems {

inline std::uint32_t
referenceCrc32Update(std::uint32_t crc, const void *data,
                     std::size_t len)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace stems

#endif // STEMS_TESTS_REFERENCE_CRC32_HH
