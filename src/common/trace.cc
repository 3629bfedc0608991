#include "common/trace.hh"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "common/logging.hh"

namespace pipelayer {
namespace trace {

namespace {

/** Logical cycles -> viewer microseconds (1 cycle = 1 us). */
constexpr int64_t kUsPerCycle = 1;

} // namespace

TraceRecorder::TraceRecorder(std::string process_name)
    : process_name_(std::move(process_name))
{
}

int64_t
TraceRecorder::addTrack(const std::string &name)
{
    tracks_.push_back(name);
    return static_cast<int64_t>(tracks_.size()) - 1;
}

int64_t
TraceRecorder::mergeFrom(const TraceRecorder &other,
                         const std::string &track_prefix)
{
    const int64_t base = trackCount();
    for (const std::string &name : other.tracks_)
        addTrack(track_prefix + name);
    for (TraceEvent event : other.events_) {
        event.track += base;
        events_.push_back(std::move(event));
    }
    for (MarkEvent mark : other.marks_) {
        if (mark.kind == MarkEvent::Kind::FlowStart ||
            mark.kind == MarkEvent::Kind::FlowFinish) {
            mark.track += base;
        }
        marks_.push_back(std::move(mark));
    }
    for (const auto &entry : other.async_depth_) {
        async_depth_[entry.first] += entry.second;
    }
    for (const auto &entry : other.flow_counts_) {
        auto &counts = flow_counts_[entry.first];
        counts.first += entry.second.first;
        counts.second += entry.second.second;
    }
    last_cycle_ = std::max(last_cycle_, other.last_cycle_);
    return base;
}

void
TraceRecorder::complete(int64_t track, const std::string &name,
                        const std::string &category, int64_t cycle,
                        int64_t duration, int64_t image)
{
    PL_ASSERT(track >= 0 && track < trackCount(),
              "complete() on undeclared track %lld", (long long)track);
    PL_ASSERT(duration >= 0,
              "slice on track %lld ends (cycle %lld) before it begins "
              "(cycle %lld)",
              (long long)track, (long long)(cycle + duration),
              (long long)cycle);
    TraceEvent event;
    event.name = name;
    event.category = category;
    event.track = track;
    event.begin_cycle = cycle;
    event.duration = std::max<int64_t>(1, duration);
    event.image = image;
    last_cycle_ = std::max(last_cycle_,
                           event.begin_cycle + event.duration);
    events_.push_back(std::move(event));
}

void
TraceRecorder::asyncBegin(const std::string &name,
                          const std::string &category, int64_t id,
                          int64_t cycle)
{
    async_depth_[{category, id}]++;
    marks_.push_back({MarkEvent::Kind::AsyncBegin, name, category, id,
                      0, cycle, 0});
}

void
TraceRecorder::asyncInstant(const std::string &name,
                            const std::string &category, int64_t id,
                            int64_t cycle)
{
    marks_.push_back({MarkEvent::Kind::AsyncInstant, name, category, id,
                      0, cycle, 0});
}

void
TraceRecorder::asyncEnd(const std::string &name,
                        const std::string &category, int64_t id,
                        int64_t cycle)
{
    auto it = async_depth_.find({category, id});
    PL_ASSERT(it != async_depth_.end() && it->second > 0,
              "asyncEnd('%s', id %lld) without a matching asyncBegin",
              category.c_str(), (long long)id);
    --it->second;
    last_cycle_ = std::max(last_cycle_, cycle);
    marks_.push_back({MarkEvent::Kind::AsyncEnd, name, category, id, 0,
                      cycle, 0});
}

void
TraceRecorder::flowStart(const std::string &name,
                         const std::string &category, int64_t id,
                         int64_t track, int64_t cycle)
{
    PL_ASSERT(track >= 0 && track < trackCount(),
              "flowStart() on undeclared track %lld", (long long)track);
    flow_counts_[{category, id}].first++;
    marks_.push_back({MarkEvent::Kind::FlowStart, name, category, id,
                      track, cycle, 0});
}

void
TraceRecorder::flowFinish(const std::string &name,
                          const std::string &category, int64_t id,
                          int64_t track, int64_t cycle)
{
    PL_ASSERT(track >= 0 && track < trackCount(),
              "flowFinish() on undeclared track %lld", (long long)track);
    flow_counts_[{category, id}].second++;
    marks_.push_back({MarkEvent::Kind::FlowFinish, name, category, id,
                      track, cycle, 0});
}

void
TraceRecorder::counter(const std::string &name, int64_t cycle,
                       int64_t value)
{
    last_cycle_ = std::max(last_cycle_, cycle);
    marks_.push_back({MarkEvent::Kind::Counter, name, std::string(), 0,
                      0, cycle, value});
}

json::Value
TraceRecorder::toJson() const
{
    json::Value doc = json::Value::object();
    json::Value events = json::Value::array();

    // Metadata: name the process and order the unit rows so Perfetto
    // renders them top-to-bottom like the paper's figures.
    json::Value pname = json::Value::object();
    pname["name"] = "process_name";
    pname["ph"] = "M";
    pname["pid"] = 0;
    pname["tid"] = 0;
    pname["args"]["name"] = process_name_;
    events.push(std::move(pname));
    for (size_t t = 0; t < tracks_.size(); ++t) {
        json::Value tname = json::Value::object();
        tname["name"] = "thread_name";
        tname["ph"] = "M";
        tname["pid"] = 0;
        tname["tid"] = static_cast<int64_t>(t);
        tname["args"]["name"] = tracks_[t];
        events.push(std::move(tname));
        json::Value tsort = json::Value::object();
        tsort["name"] = "thread_sort_index";
        tsort["ph"] = "M";
        tsort["pid"] = 0;
        tsort["tid"] = static_cast<int64_t>(t);
        tsort["args"]["sort_index"] = static_cast<int64_t>(t);
        events.push(std::move(tsort));
    }

    // Slices, ordered by (begin cycle, track) so the document is
    // stable no matter the emission order.
    std::vector<const TraceEvent *> ordered;
    ordered.reserve(events_.size());
    for (const TraceEvent &e : events_)
        ordered.push_back(&e);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const TraceEvent *a, const TraceEvent *b) {
                         if (a->begin_cycle != b->begin_cycle)
                             return a->begin_cycle < b->begin_cycle;
                         return a->track < b->track;
                     });
    // Every flow endpoint lies inside a slice on its track.  Per track,
    // each slice's begin with the running maximum of the ends so far:
    // a cycle lies inside a slice there iff the last slice beginning
    // at or before it reaches past it.  Checked before the slices turn
    // into JSON, so the index is gone by the time the document peaks.
    {
        std::vector<std::vector<std::pair<int64_t, int64_t>>> reach(
            tracks_.size());
        for (const TraceEvent *e : ordered) {
            auto &r = reach[static_cast<size_t>(e->track)];
            const int64_t end = e->begin_cycle + e->duration;
            r.emplace_back(e->begin_cycle,
                           r.empty() ? end
                                     : std::max(end, r.back().second));
        }
        for (const MarkEvent &m : marks_) {
            if (m.kind != MarkEvent::Kind::FlowStart &&
                m.kind != MarkEvent::Kind::FlowFinish) {
                continue;
            }
            const auto &r = reach[static_cast<size_t>(m.track)];
            const auto after = std::upper_bound(
                r.begin(), r.end(), m.cycle,
                [](int64_t cycle, const std::pair<int64_t, int64_t> &s) {
                    return cycle < s.first;
                });
            PL_ASSERT(after != r.begin() &&
                          std::prev(after)->second > m.cycle,
                      "flow ('%s', id %lld) endpoint at cycle %lld has "
                      "no enclosing slice on track '%s'",
                      m.category.c_str(), (long long)m.id,
                      (long long)m.cycle,
                      tracks_[static_cast<size_t>(m.track)].c_str());
        }
    }
    for (const TraceEvent *e : ordered) {
        json::Value event = json::Value::object();
        event["name"] = e->name;
        event["cat"] = e->category;
        event["ph"] = "X";
        event["pid"] = 0;
        event["tid"] = e->track;
        event["ts"] = e->begin_cycle * kUsPerCycle;
        event["dur"] = e->duration * kUsPerCycle;
        event["args"]["cycle"] = e->begin_cycle;
        if (e->image >= 0)
            event["args"]["image"] = e->image;
        events.push(std::move(event));
    }

    // Telemetry invariants before the async/flow/counter events go
    // out: spans balanced and flows paired (their anchors are checked
    // above).
    for (const auto &entry : async_depth_) {
        PL_ASSERT(entry.second == 0,
                  "trace serialised with %lld open async span(s) for "
                  "('%s', id %lld)",
                  (long long)entry.second, entry.first.first.c_str(),
                  (long long)entry.first.second);
    }
    for (const auto &entry : flow_counts_) {
        PL_ASSERT(entry.second.first == 1 && entry.second.second == 1,
                  "flow ('%s', id %lld) has %lld start(s) and %lld "
                  "finish(es); want exactly one of each",
                  entry.first.first.c_str(), (long long)entry.first.second,
                  (long long)entry.second.first,
                  (long long)entry.second.second);
    }

    // Async/flow/counter events, ordered by (cycle, emission order) —
    // emission order is deterministic (the serving policy is serial),
    // so the document stays byte-stable at any thread count.
    std::vector<const MarkEvent *> marks;
    marks.reserve(marks_.size());
    for (const MarkEvent &m : marks_)
        marks.push_back(&m);
    std::stable_sort(marks.begin(), marks.end(),
                     [](const MarkEvent *a, const MarkEvent *b) {
                         return a->cycle < b->cycle;
                     });
    for (const MarkEvent *m : marks) {
        json::Value event = json::Value::object();
        event["name"] = m->name;
        switch (m->kind) {
          case MarkEvent::Kind::AsyncBegin:
          case MarkEvent::Kind::AsyncInstant:
          case MarkEvent::Kind::AsyncEnd:
            event["cat"] = m->category;
            event["ph"] = m->kind == MarkEvent::Kind::AsyncBegin ? "b"
                          : m->kind == MarkEvent::Kind::AsyncInstant
                              ? "n"
                              : "e";
            event["id"] = m->id;
            event["pid"] = 0;
            event["tid"] = 0;
            event["ts"] = m->cycle * kUsPerCycle;
            break;
          case MarkEvent::Kind::FlowStart:
          case MarkEvent::Kind::FlowFinish:
            event["cat"] = m->category;
            event["ph"] = m->kind == MarkEvent::Kind::FlowStart ? "s"
                                                                : "f";
            if (m->kind == MarkEvent::Kind::FlowFinish)
                event["bp"] = "e"; // bind to the enclosing slice
            event["id"] = m->id;
            event["pid"] = 0;
            event["tid"] = m->track;
            event["ts"] = m->cycle * kUsPerCycle;
            break;
          case MarkEvent::Kind::Counter:
            event["ph"] = "C";
            event["pid"] = 0;
            event["tid"] = 0;
            event["ts"] = m->cycle * kUsPerCycle;
            event["args"]["value"] = m->value;
            break;
        }
        events.push(std::move(event));
    }

    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    doc["otherData"]["cycle_unit_us"] = kUsPerCycle;
    return doc;
}

void
TraceRecorder::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open trace file '%s' for writing", path.c_str());
    toJson().write(os, 1);
    os << "\n";
    if (!os)
        fatal("failed writing trace file '%s'", path.c_str());
}

} // namespace trace
} // namespace pipelayer
