#include "sim/checkpoint.hh"

#include <cstring>

#include "common/crc32.hh"
#include "common/state_codec.hh"
#include "obs/metrics.hh"

namespace stems {

namespace {

constexpr char kCheckpointMagic[8] = {'S', 'T', 'e', 'M',
                                      'S', 'c', 'k', 'p'};
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kIndexOffset = 12;
constexpr std::size_t kPayloadLenOffset = 20;
constexpr std::size_t kCrcOffset = 28;

template <typename T>
void
putScalar(std::vector<std::uint8_t> &buf, std::size_t offset, T v)
{
    std::memcpy(buf.data() + offset, &v, sizeof(v));
}

template <typename T>
T
getScalar(const std::vector<std::uint8_t> &buf, std::size_t offset)
{
    T v{};
    std::memcpy(&v, buf.data() + offset, sizeof(v));
    return v;
}

/** Deterministic work counts: bytes encoded into blobs and payload
 *  bytes hashed to verify them. */
struct CheckpointMetrics
{
    Counter &encodedBytes =
        MetricsRegistry::instance().counter("ckpt.encoded_bytes");
    Counter &verifiedBytes =
        MetricsRegistry::instance().counter("ckpt.verified_bytes");
};

CheckpointMetrics &
ckptMetrics()
{
    static CheckpointMetrics metrics;
    return metrics;
}

/** Restore a blob whose framing was already checked. */
bool
decodeFramed(const std::vector<std::uint8_t> &blob,
             PrefetchSimulator &sim, std::uint64_t *index_out)
{
    StateReader r(blob.data() + kHeaderBytes,
                  blob.size() - kHeaderBytes);
    sim.loadState(r);
    if (!r.atEnd())
        return false;
    if (index_out)
        *index_out = getScalar<std::uint64_t>(blob, kIndexOffset);
    return true;
}

} // namespace

std::vector<std::size_t>
checkpointBounds(std::size_t trace_size, std::size_t checkpoint_every)
{
    std::vector<std::size_t> bounds;
    if (trace_size == 0)
        return bounds;
    if (checkpoint_every > 0)
        for (std::size_t b = checkpoint_every; b < trace_size;
             b += checkpoint_every)
            bounds.push_back(b);
    bounds.push_back(trace_size);
    return bounds;
}

std::vector<std::uint8_t>
encodeCheckpoint(const PrefetchSimulator &sim,
                 std::uint64_t record_index)
{
    StateWriter w(kHeaderBytes);
    sim.saveState(w);
    std::vector<std::uint8_t> blob = w.take();
    const std::size_t payload_len = blob.size() - kHeaderBytes;
    std::memcpy(blob.data(), kCheckpointMagic,
                sizeof(kCheckpointMagic));
    putScalar<std::uint32_t>(blob, 8, kCheckpointVersion);
    putScalar<std::uint64_t>(blob, kIndexOffset, record_index);
    putScalar<std::uint64_t>(blob, kPayloadLenOffset, payload_len);
    putScalar<std::uint32_t>(
        blob, kCrcOffset,
        crc32(blob.data() + kHeaderBytes, payload_len));
    ckptMetrics().encodedBytes.add(blob.size());
    return blob;
}

bool
checkpointValid(const std::vector<std::uint8_t> &blob)
{
    if (blob.size() < kHeaderBytes)
        return false;
    if (std::memcmp(blob.data(), kCheckpointMagic,
                    sizeof(kCheckpointMagic)) != 0)
        return false;
    if (getScalar<std::uint32_t>(blob, 8) != kCheckpointVersion)
        return false;
    std::uint64_t payload_len =
        getScalar<std::uint64_t>(blob, kPayloadLenOffset);
    if (payload_len != blob.size() - kHeaderBytes)
        return false;
    ckptMetrics().verifiedBytes.add(payload_len);
    std::uint32_t crc = getScalar<std::uint32_t>(blob, kCrcOffset);
    return crc32(blob.data() + kHeaderBytes,
                 static_cast<std::size_t>(payload_len)) == crc;
}

std::uint64_t
VerifiedCheckpoint::index() const
{
    return getScalar<std::uint64_t>(blob_, kIndexOffset);
}

std::optional<VerifiedCheckpoint>
verifyCheckpoint(std::vector<std::uint8_t> blob)
{
    if (!checkpointValid(blob))
        return std::nullopt;
    return VerifiedCheckpoint(std::move(blob));
}

bool
decodeCheckpoint(const VerifiedCheckpoint &blob,
                 PrefetchSimulator &sim, std::uint64_t *index_out)
{
    return decodeFramed(blob.bytes(), sim, index_out);
}

bool
decodeCheckpoint(const std::vector<std::uint8_t> &blob,
                 PrefetchSimulator &sim, std::uint64_t *index_out)
{
    return checkpointValid(blob) && decodeFramed(blob, sim, index_out);
}

} // namespace stems
