#include "core/stream.hh"

namespace stems {

StreamQueueSet::StreamQueueSet(StreamParams params, RefillFn refill)
    : params_(params), refill_(refill), streams_(params.numStreams)
{
}

void
StreamQueueSet::maybeRefill(Stream &s)
{
    if (s.exhausted || !s.refills || !refill_)
        return;
    if (s.pending.size() >= params_.refillLowWater)
        return;
    std::size_t before = s.pending.size();
    refill_(s.pending, s.refillState);
    if (s.pending.size() == before)
        s.exhausted = true;
}

void
StreamQueueSet::issueFrom(Stream &s, int id)
{
    maybeRefill(s);
    unsigned target = s.confirmed ? params_.lookahead : 1;
    while (s.inFlight < static_cast<int>(target) &&
           globalInFlight_ <
               static_cast<int>(params_.maxGlobalInFlight) &&
           !s.pending.empty()) {
        PrefetchRequest req;
        req.addr = blockAlign(s.pending.front());
        req.streamId = id;
        req.sink = PrefetchSink::kBuffer;
        pendingReqs_.push_back(req);
        s.pending.pop_front();
        ++s.inFlight;
        ++globalInFlight_;
        maybeRefill(s);
    }
}

StreamQueueSet::Stream *
StreamQueueSet::decodeId(int stream_id, std::size_t *index_out)
{
    if (stream_id < 0)
        return nullptr;
    std::size_t index = static_cast<std::uint32_t>(stream_id) & 0xF;
    std::uint32_t generation =
        static_cast<std::uint32_t>(stream_id) >> 4;
    if (index >= streams_.size())
        return nullptr;
    Stream &s = streams_[index];
    if (!s.active || s.generation != generation)
        return nullptr; // the queue was reallocated since
    if (index_out)
        *index_out = index;
    return &s;
}

int
StreamQueueSet::allocate(const Addr *first, const Addr *last,
                         bool confirmed,
                         std::optional<std::uint64_t> refill_cursor)
{
    std::size_t victim = 0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        if (!streams_[i].active) {
            victim = i;
            break;
        }
        if (streams_[i].lru < streams_[victim].lru)
            victim = i;
    }

    Stream &s = streams_[victim];
    // Reclaim the victim's outstanding budget (see TMS counterpart).
    globalInFlight_ -= s.inFlight;
    if (globalInFlight_ < 0)
        globalInFlight_ = 0;
    s.reset();
    ++s.generation;
    s.active = true;
    s.confirmed = confirmed;
    s.pending.assign(first, last);
    s.refills = refill_cursor.has_value();
    s.refillState = refill_cursor.value_or(0);
    s.lru = ++clock_;
    ++allocated_;
    int id = encodeId(victim, s.generation);
    issueFrom(s, id);
    return id;
}

bool
StreamQueueSet::resync(Addr a)
{
    Addr block = blockAlign(a);
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        Stream &s = streams_[i];
        if (!s.active)
            continue;
        std::size_t window =
            std::min(params_.resyncWindow, s.pending.size());
        for (std::size_t k = 0; k < window; ++k) {
            if (blockAlign(s.pending[k]) == block) {
                s.pending.dropFront(k + 1);
                s.confirmed = true;
                s.lru = ++clock_;
                issueFrom(s, encodeId(i, s.generation));
                return true;
            }
        }
    }
    return false;
}

void
StreamQueueSet::onHit(int stream_id)
{
    Stream *s = decodeId(stream_id);
    if (!s)
        return; // stale stream: its budget was reclaimed at realloc
    if (s->inFlight > 0) {
        --s->inFlight;
        if (globalInFlight_ > 0)
            --globalInFlight_;
    }
    s->confirmed = true;
    s->lru = ++clock_;
    issueFrom(*s, stream_id);
}

void
StreamQueueSet::onDrop(int stream_id)
{
    // Evicted-unused: release the slot; do not push further (eviction
    // feedback would livelock the SVB).
    Stream *s = decodeId(stream_id);
    if (s && s->inFlight > 0) {
        --s->inFlight;
        if (globalInFlight_ > 0)
            --globalInFlight_;
    }
}

void
StreamQueueSet::onFiltered(int stream_id)
{
    Stream *s = decodeId(stream_id);
    if (!s)
        return;
    if (s->inFlight > 0) {
        --s->inFlight;
        if (globalInFlight_ > 0)
            --globalInFlight_;
        // The block was already resident: stream past it.
        issueFrom(*s, stream_id);
    }
}

void
StreamQueueSet::drainRequests(std::vector<PrefetchRequest> &out)
{
    out.insert(out.end(), pendingReqs_.begin(), pendingReqs_.end());
    pendingReqs_.clear();
}

namespace {
constexpr std::uint32_t kStreamsTag = stateTag('S', 'T', 'Q', 'S');
} // namespace

void
StreamQueueSet::saveState(StateWriter &w) const
{
    w.tag(kStreamsTag);
    w.i64(globalInFlight_);
    w.u64(clock_);
    w.u64(allocated_);
    w.u64(streams_.size());
    for (const Stream &s : streams_) {
        w.boolean(s.active);
        w.boolean(s.confirmed);
        w.boolean(s.exhausted);
        w.u64(s.pending.size());
        for (std::size_t k = 0; k < s.pending.size(); ++k)
            w.u64(s.pending[k]);
        w.boolean(s.refills);
        w.u64(s.refillState);
        w.u64(s.lru);
        w.i64(s.inFlight);
        w.u32(s.generation);
    }
    savePrefetchRequests(w, pendingReqs_);
}

void
StreamQueueSet::loadState(StateReader &r)
{
    r.tag(kStreamsTag);
    globalInFlight_ = static_cast<int>(r.i64());
    clock_ = r.u64();
    allocated_ = r.u64();
    if (r.u64() != streams_.size()) {
        r.fail();
        return;
    }
    for (Stream &s : streams_) {
        s.reset();
        s.generation = 0;
        s.active = r.boolean();
        s.confirmed = r.boolean();
        s.exhausted = r.boolean();
        std::uint64_t pending = r.u64();
        // Queues hold reconstruction windows: cap the restored size
        // so a corrupt count cannot balloon memory.
        if (pending > (std::uint64_t{1} << 20)) {
            r.fail();
            return;
        }
        for (std::uint64_t i = 0; i < pending && r.ok(); ++i)
            s.pending.push_back(r.u64());
        s.refills = r.boolean();
        s.refillState = r.u64();
        s.lru = r.u64();
        s.inFlight = static_cast<int>(r.i64());
        s.generation = r.u32();
        if (!r.ok())
            return;
    }
    loadPrefetchRequests(r, pendingReqs_);
}

} // namespace stems
