/**
 * @file
 * Simulation-state checkpoints: a CRC-framed binary blob capturing a
 * PrefetchSimulator (hierarchy, SVB, timing model, statistics, and
 * the attached engine's complete training state) at a record index,
 * such that restoring it into an identically-constructed simulator
 * and stepping the remaining records is bitwise identical to never
 * having stopped (tests/checkpoint_test.cc pins this per registered
 * engine).
 *
 * Blob layout (little-endian):
 *
 *   offset  0  8-byte magic "STeMSckp"
 *   offset  8  u32 version
 *   offset 12  u64 record index (records stepped before the save)
 *   offset 20  u64 payload byte length
 *   offset 28  u32 CRC-32 of the payload bytes
 *   offset 32  payload: the StateWriter field stream produced by
 *              PrefetchSimulator::saveState
 *
 * The checkpoint convention: a checkpoint "at index i" is taken
 * after records [0, i) were stepped and *before* the warmup
 * measuring flip that record i's iteration would perform — so a
 * resumed run re-executes the flip check for record i exactly like a
 * continuous run does.
 *
 * Decoding is reject-only: magic/version/length/CRC are verified
 * before any simulator mutation, and a structural mismatch inside
 * the payload (wrong geometry, wrong engine shape) fails the load.
 * The CRC is checked once per load: a VerifiedCheckpoint carries the
 * proof that it was, so decoding one skips the framing pass.
 * The TraceStore persists these blobs as its fourth entry class,
 * keyed by (trace-prefix digest, engine-spec digest, config digest,
 * record index) — see store/trace_store.hh.
 */

#ifndef STEMS_SIM_CHECKPOINT_HH
#define STEMS_SIM_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/prefetch_sim.hh"

namespace stems {

/**
 * Checkpoint boundaries over a trace of `trace_size` records:
 * ascending multiples of `checkpoint_every` below the trace end
 * (absolute indices, stable across record counts, which is what lets
 * an extended re-run find a shorter run's checkpoints), plus the
 * trace end itself so a follow-up run can extend from the full
 * prefix. Just the trace end when `checkpoint_every` is 0; empty for
 * an empty trace.
 */
std::vector<std::size_t> checkpointBounds(std::size_t trace_size,
                                          std::size_t checkpoint_every);

/**
 * Current checkpoint blob format version.
 *
 * v2: container serialization is key-canonical (unordered_map state
 * is emitted key-sorted), making the payload a pure function of
 * logical simulator state: two simulators in the same logical state
 * always serialize to identical bytes, so a blob written by a
 * resumed run equals the one a continuous run writes at the same
 * boundary, and decode -> re-encode is byte-identical
 * (tests/checkpoint_test.cc pins both).
 */
inline constexpr std::uint32_t kCheckpointVersion = 2;

/**
 * Serialize a simulator into a framed checkpoint blob. The payload is
 * written in place behind a header slot that is patched afterwards,
 * so the blob is never copied. Counts the blob's bytes in the
 * `ckpt.encoded_bytes` metric.
 *
 * @param sim           the simulator to capture (mid-run, before
 *                      finish()).
 * @param record_index  records stepped so far (see file comment).
 */
std::vector<std::uint8_t>
encodeCheckpoint(const PrefetchSimulator &sim,
                 std::uint64_t record_index);

/**
 * Validate a blob's framing (magic, version, length, CRC) without
 * touching any simulator. Every call hashes the whole payload and
 * counts its bytes in the `ckpt.verified_bytes` metric. @return
 * false on any mismatch.
 */
bool checkpointValid(const std::vector<std::uint8_t> &blob);

/**
 * A checkpoint blob whose framing and CRC have been verified.
 * verifyCheckpoint is the only way to make one, so decoding it needs
 * no second pass over the bytes: the store verifies each blob it
 * loads once (store/trace_store.hh) and the driver decodes what it
 * returns.
 */
class VerifiedCheckpoint
{
  public:
    /** The whole blob, header included. */
    const std::vector<std::uint8_t> &bytes() const { return blob_; }

    /** Records stepped before the save (the header's index). */
    std::uint64_t index() const;

  private:
    friend std::optional<VerifiedCheckpoint>
    verifyCheckpoint(std::vector<std::uint8_t> blob);

    explicit VerifiedCheckpoint(std::vector<std::uint8_t> blob)
        : blob_(std::move(blob))
    {
    }

    std::vector<std::uint8_t> blob_;
};

/**
 * Check a blob's framing (checkpointValid) and take ownership of it.
 * @return nullopt when the framing is invalid.
 */
std::optional<VerifiedCheckpoint>
verifyCheckpoint(std::vector<std::uint8_t> blob);

/**
 * Restore a checkpoint into a simulator constructed with the same
 * SimParams and an equivalently-specified engine.
 *
 * Framing is verified before any mutation; on a framing failure the
 * simulator is untouched. A payload-structure failure (possible only
 * under key collisions or code-version skew) can leave the simulator
 * partially mutated — the caller must then discard and rebuild it.
 *
 * @param index_out  receives the blob's record index on success.
 * @return true when the simulator now holds the checkpointed state.
 */
bool decodeCheckpoint(const std::vector<std::uint8_t> &blob,
                      PrefetchSimulator &sim,
                      std::uint64_t *index_out = nullptr);

/** decodeCheckpoint for a blob whose framing is already verified:
 *  only the payload structure is checked. */
bool decodeCheckpoint(const VerifiedCheckpoint &blob,
                      PrefetchSimulator &sim,
                      std::uint64_t *index_out = nullptr);

} // namespace stems

#endif // STEMS_SIM_CHECKPOINT_HH
