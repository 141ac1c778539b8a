/**
 * @file
 * Span recording and self-time arithmetic (see trace.hh).
 */

#include "lib/trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench
{

namespace
{

std::atomic<bool> tracingOn{false};

const std::chrono::steady_clock::time_point epoch =
    std::chrono::steady_clock::now();

/** One thread's spans plus its stack of open spans. */
struct ThreadBuffer
{
    uint64_t index = 0;
    uint64_t nextId = 1;
    std::vector<Span> spans;
    std::vector<size_t> open; ///< slots of the open spans
};

/** Every thread's buffer; buffers outlive their threads. */
struct BufferList
{
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

BufferList &
bufferList()
{
    static BufferList list;
    return list;
}

ThreadBuffer &
threadBuffer()
{
    thread_local ThreadBuffer *buffer = [] {
        BufferList &list = bufferList();
        std::lock_guard<std::mutex> lock(list.mutex);
        list.buffers.push_back(std::make_unique<ThreadBuffer>());
        list.buffers.back()->index = list.buffers.size();
        return list.buffers.back().get();
    }();
    return *buffer;
}

} // namespace

void
Tracer::setEnabled(bool on)
{
    tracingOn.store(on, std::memory_order_relaxed);
}

bool
Tracer::enabled()
{
    return tracingOn.load(std::memory_order_relaxed);
}

uint64_t
Tracer::nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - epoch)
                        .count());
}

std::vector<Span>
Tracer::collect()
{
    BufferList &list = bufferList();
    std::lock_guard<std::mutex> lock(list.mutex);
    std::vector<Span> out;
    for (const auto &buffer : list.buffers)
        out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    return out;
}

void
Tracer::clear()
{
    BufferList &list = bufferList();
    std::lock_guard<std::mutex> lock(list.mutex);
    for (const auto &buffer : list.buffers) {
        buffer->spans.clear();
        buffer->open.clear();
    }
}

bool
Tracer::write(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (const Span &s : spans) {
        std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%llu\t%llu\n",
                     (unsigned long long)s.id,
                     (unsigned long long)s.parent,
                     (unsigned long long)s.request, s.name,
                     (unsigned long long)s.startNs,
                     (unsigned long long)s.endNs);
    }
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char *name, uint64_t request)
    : on_(Tracer::enabled())
{
    if (!on_)
        return;
    ThreadBuffer &buf = threadBuffer();
    Span span;
    span.id = (buf.index << 40) | buf.nextId++;
    if (!buf.open.empty()) {
        const Span &enclosing = buf.spans[buf.open.back()];
        span.parent = enclosing.id;
        span.request = enclosing.request;
    }
    if (request != 0)
        span.request = request;
    span.name = name;
    slot_ = buf.spans.size();
    buf.open.push_back(slot_);
    span.startNs = Tracer::nowNs();
    buf.spans.push_back(span);
}

ScopedSpan::~ScopedSpan()
{
    if (!on_)
        return;
    ThreadBuffer &buf = threadBuffer();
    buf.spans[slot_].endNs = Tracer::nowNs();
    buf.open.pop_back();
}

uint64_t
selfTimeNs(uint64_t start, uint64_t end,
           std::vector<std::pair<uint64_t, uint64_t>> children)
{
    if (end <= start)
        return 0;
    std::sort(children.begin(), children.end());
    uint64_t covered = 0;
    uint64_t reach = start; // covered up to here
    for (auto [lo, hi] : children) {
        lo = std::max(lo, reach);
        hi = std::min(hi, end);
        if (hi <= lo)
            continue;
        covered += hi - lo;
        reach = hi;
    }
    return (end - start) - covered;
}

std::map<std::string, LayerTime>
layerTimes(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
        children;
    for (const Span &s : spans) {
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    }
    std::map<std::string, LayerTime> out;
    for (const Span &s : spans) {
        LayerTime &t = out[s.name];
        const uint64_t duration =
            s.endNs > s.startNs ? s.endNs - s.startNs : 0;
        ++t.count;
        t.totalNs += duration;
        const auto it = children.find(s.id);
        t.selfNs += it == children.end()
                        ? duration
                        : selfTimeNs(s.startNs, s.endNs, it->second);
    }
    return out;
}

} // namespace perfbench
