#include "obs/tracer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/csv.h"

namespace p3::obs {

namespace {

constexpr const char* kStageNames[kNumStages] = {
    "grad_ready", "enqueue",    "send", "server_recv",
    "aggregate",  "notify",     "pull", "param_ready",
};

/// Append `text` JSON-escaped (quotes not included).
void escape_json(const std::string& text, std::string& out) {
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  escape_json(text, out);
  out += '"';
  return out;
}

/// Microsecond timestamp with fixed sub-microsecond precision; fixed format
/// keeps exports byte-stable across platforms.
std::string ts_us(TimeS t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", t * 1e6);
  return buf;
}

std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// The id the next entry of a table of `size` entries gets.
std::uint32_t next_id(std::size_t size, const char* table) {
  if (size >= kMaxInternedIds) {
    throw std::length_error(std::string("trace ") + table +
                            " table is full: ids must stay below 2^29");
  }
  return static_cast<std::uint32_t>(size);
}

/// `v` as the lifecycle record field `field` of type T, which must hold it.
template <class T>
T narrow(std::int64_t v, const char* field) {
  if (v < std::numeric_limits<T>::min() || v > std::numeric_limits<T>::max()) {
    throw std::out_of_range("lifecycle " + std::string(field) + " " +
                            std::to_string(v) + " does not fit its record");
  }
  return static_cast<T>(v);
}

}  // namespace

const char* stage_name(Stage stage) {
  const auto i = static_cast<std::size_t>(stage);
  if (i >= kNumStages) return "?";
  return kStageNames[i];
}

Stage parse_stage(const std::string& name) {
  for (int i = 0; i < kNumStages; ++i) {
    if (name == kStageNames[i]) return static_cast<Stage>(i);
  }
  throw std::invalid_argument("unknown lifecycle stage: " + name);
}

std::int64_t make_trace_id(std::int64_t slice, std::int64_t iteration,
                           int worker) {
  // 26 bits of slice, 28 of iteration, 8 of worker: collision-free for any
  // workload this simulator can hold in memory.
  return ((slice & 0x3FFFFFF) << 36) | ((iteration & 0xFFFFFFF) << 8) |
         (static_cast<std::int64_t>(worker) & 0xFF);
}

void EventLog::FreeChunk::operator()(Event* chunk) const {
  std::allocator<Event>().deallocate(chunk, kChunkRecords);
}

void EventLog::add_chunk() {
  // Ids are 32-bit; the next chunk must not hold a record past the last one.
  if (size_ > std::numeric_limits<std::uint32_t>::max() - kChunkRecords) {
    throw std::length_error("trace event log is full");
  }
  chunks_.emplace_back(std::allocator<Event>().allocate(kChunkRecords));
}

void EventLog::clear() {
  chunks_.clear();
  size_ = 0;
}

Event Tracer::make(EventKind kind, std::uint32_t track_id,
                   std::uint32_t label_id, TimeS t0) {
  Event e;
  e.kind = kind;
  e.track = track_id;
  e.label = label_id;
  e.t0 = t0;
  return e;
}

std::vector<std::uint32_t> Tracer::by_start(const IdList<TimeS>& list) const {
  std::vector<std::uint32_t> ids = list.ids;
  std::stable_sort(ids.begin(), ids.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return events_[a].t0 < events_[b].t0;
                   });
  return ids;
}

std::uint32_t Tracer::track(const std::string& lane) {
  auto it = track_ids_.find(lane);
  if (it != track_ids_.end()) return it->second;
  const auto id = next_id(tracks_.size(), "track");
  const auto dot = lane.find('.');
  tracks_.push_back(
      Track{lane, dot == std::string::npos ? lane : lane.substr(0, dot)});
  by_track_.emplace_back();
  track_ids_.emplace(lane, id);
  return id;
}

std::uint32_t Tracer::label(const std::string& text) {
  auto it = label_ids_.find(text);
  if (it != label_ids_.end()) return it->second;
  const auto id = next_id(labels_.size(), "label");
  labels_.push_back(text);
  label_ids_.emplace(text, id);
  return id;
}

void Tracer::span(const std::string& lane, TimeS t0, TimeS t1,
                  const std::string& label_text) {
  if (!enabled_) return;
  span(track(lane), t0, t1, label(label_text));
}

void Tracer::span(std::uint32_t track_id, TimeS t0, TimeS t1,
                  std::uint32_t label_id) {
  if (!enabled_) return;
  Event e = make(EventKind::kSpan, track_id, label_id, t0);
  e.t1_ = t1;
  by_track_.at(track_id).spans.add(events_.push_back(e), t0);
}

void Tracer::instant(const std::string& lane, TimeS t,
                     const std::string& label_text) {
  if (!enabled_) return;
  events_.push_back(
      make(EventKind::kInstant, track(lane), label(label_text), t));
}

void Tracer::counter(const std::string& lane, TimeS t, double value) {
  if (!enabled_) return;
  counter(track(lane), t, value);
}

void Tracer::counter(std::uint32_t track_id, TimeS t, double value) {
  if (!enabled_) return;
  Event e = make(EventKind::kCounter, track_id, 0, t);
  e.value_ = value;
  events_.push_back(e);
}

void Tracer::flow_start(const std::string& lane, TimeS t, std::int64_t flow_id,
                        const std::string& label_text) {
  if (!enabled_) return;
  flow_start(track(lane), t, flow_id, label(label_text));
}

void Tracer::flow_start(std::uint32_t track_id, TimeS t, std::int64_t flow_id,
                        std::uint32_t label_id) {
  if (!enabled_) return;
  Event e = make(EventKind::kFlowStart, track_id, label_id, t);
  e.flow_ = flow_id;
  flow_starts_.add(events_.push_back(e), flow_id);
}

void Tracer::flow_end(const std::string& lane, TimeS t, std::int64_t flow_id,
                      const std::string& label_text) {
  if (!enabled_) return;
  flow_end(track(lane), t, flow_id, label(label_text));
}

void Tracer::flow_end(std::uint32_t track_id, TimeS t, std::int64_t flow_id,
                      std::uint32_t label_id) {
  if (!enabled_) return;
  Event e = make(EventKind::kFlowEnd, track_id, label_id, t);
  e.flow_ = flow_id;
  by_track_.at(track_id).flow_ends.add(events_.push_back(e), t);
}

void Tracer::lifecycle(Stage stage, int worker, std::int64_t slice, int layer,
                       std::int64_t iteration, int priority, Bytes bytes,
                       TimeS t) {
  if (!enabled_) return;
  LifecycleRecord r;
  r.stage = stage;
  r.worker = narrow<std::int16_t>(worker, "worker");
  r.layer = narrow<std::int16_t>(layer, "layer");
  r.priority = narrow<std::int16_t>(priority, "priority");
  r.slice = narrow<std::int32_t>(slice, "slice");
  r.iteration = narrow<std::int32_t>(iteration, "iteration");
  r.bytes = bytes;
  r.t = t;
  lifecycle_.push_back(r);
}

void Tracer::clear() {
  events_.clear();
  by_track_.clear();
  flow_starts_ = {};
  tracks_.clear();
  track_ids_.clear();
  labels_.clear();
  label_ids_.clear();
  for (auto& ids : track_cache_) ids.clear();
  for (auto& ids : label_cache_) ids.clear();
  lifecycle_.clear();
}

std::vector<std::string> Tracer::validate() const {
  return validate_accounting().violations;
}

Tracer::ValidationStats Tracer::validate_accounting() const {
  ValidationStats stats;
  std::unordered_map<std::int64_t, TimeS> flow_starts;
  std::unordered_set<std::int64_t> flows_ended;
  for (const auto& e : events_) {
    switch (e.kind) {
      case EventKind::kSpan:
        if (e.t1() < e.t0) {
          stats.violations.push_back("negative-duration span '" +
                                     labels_.at(e.label) + "' on track '" +
                                     tracks_.at(e.track).name + "'");
        }
        break;
      case EventKind::kFlowStart: {
        auto [it, inserted] = flow_starts.emplace(e.flow(), e.t0);
        if (!inserted) it->second = std::min(it->second, e.t0);
        break;
      }
      case EventKind::kFlowEnd: {
        auto it = flow_starts.find(e.flow());
        if (it == flow_starts.end()) {
          stats.violations.push_back("flow end without a start (id " +
                                     std::to_string(e.flow()) + ")");
        } else if (e.t0 < it->second) {
          stats.violations.push_back("flow " + std::to_string(e.flow()) +
                                     " ends before it starts");
        }
        flows_ended.insert(e.flow());
        break;
      }
      case EventKind::kInstant:
      case EventKind::kCounter:
        break;
    }
  }
  stats.flows_started = static_cast<std::int64_t>(flow_starts.size());
  stats.flows_ended = static_cast<std::int64_t>(flows_ended.size());
  for (const auto& [id, t] : flow_starts) {
    if (flows_ended.find(id) == flows_ended.end()) ++stats.flows_in_flight;
  }
  return stats;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  // pid per distinct process (first-appearance order), tid per track.
  std::unordered_map<std::string, int> pids;
  std::vector<std::string> processes;
  for (const auto& t : tracks_) {
    if (pids.emplace(t.process, static_cast<int>(processes.size()) + 1)
            .second) {
      processes.push_back(t.process);
    }
  }

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& obj) {
    if (!first) out << ",";
    out << "\n" << obj;
    first = false;
  };

  for (std::size_t i = 0; i < processes.size(); ++i) {
    const int pid = static_cast<int>(i) + 1;
    emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
         std::to_string(pid) + ",\"args\":{\"name\":" + quoted(processes[i]) +
         "}}");
    emit("{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":" +
         std::to_string(pid) + ",\"args\":{\"sort_index\":" +
         std::to_string(pid) + "}}");
  }
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const int pid = pids.at(tracks_[i].process);
    const int tid = static_cast<int>(i) + 1;
    emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
         std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
         ",\"args\":{\"name\":" + quoted(tracks_[i].name) + "}}");
    emit("{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":" +
         std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
         ",\"args\":{\"sort_index\":" + std::to_string(tid) + "}}");
  }

  for (const auto& e : events_) {
    const Track& track = tracks_.at(e.track);
    const std::string pid = std::to_string(pids.at(track.process));
    const std::string tid = std::to_string(static_cast<int>(e.track) + 1);
    const std::string loc =
        "\"pid\":" + pid + ",\"tid\":" + tid + ",\"ts\":" + ts_us(e.t0);
    switch (e.kind) {
      case EventKind::kSpan:
        emit("{\"ph\":\"X\",\"name\":" + quoted(labels_.at(e.label)) +
             ",\"cat\":\"span\"," + loc + ",\"dur\":" + ts_us(e.t1() - e.t0) +
             "}");
        break;
      case EventKind::kInstant:
        emit("{\"ph\":\"i\",\"s\":\"t\",\"name\":" + quoted(labels_.at(e.label)) +
             ",\"cat\":\"instant\"," + loc + "}");
        break;
      case EventKind::kCounter:
        emit("{\"ph\":\"C\",\"name\":" + quoted(track.name) +
             ",\"cat\":\"counter\",\"pid\":" + pid + ",\"ts\":" + ts_us(e.t0) +
             ",\"args\":{\"value\":" + num(e.value()) + "}}");
        break;
      case EventKind::kFlowStart:
        emit("{\"ph\":\"s\",\"id\":" + std::to_string(e.flow()) +
             ",\"name\":" + quoted(labels_.at(e.label)) + ",\"cat\":\"flow\"," +
             loc + "}");
        break;
      case EventKind::kFlowEnd:
        emit("{\"ph\":\"f\",\"bp\":\"e\",\"id\":" + std::to_string(e.flow()) +
             ",\"name\":" + quoted(labels_.at(e.label)) + ",\"cat\":\"flow\"," +
             loc + "}");
        break;
    }
  }
  out << "\n]}\n";
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  write_chrome_json(out);
}

void Tracer::write_lifecycle_csv(const std::string& path) const {
  CsvWriter csv(path, {"stage", "worker", "slice", "layer", "iteration",
                       "priority", "bytes", "t"});
  for (const auto& r : lifecycle_) {
    char t[40];
    std::snprintf(t, sizeof(t), "%.9f", r.t);
    csv.row({stage_name(r.stage), std::to_string(r.worker),
             std::to_string(r.slice), std::to_string(r.layer),
             std::to_string(r.iteration), std::to_string(r.priority),
             std::to_string(r.bytes), t});
  }
}

LogCapture::LogCapture(Tracer& tracer, std::function<TimeS()> clock) {
  previous_ = set_thread_log_hook(
      [&tracer, clock = std::move(clock)](LogLevel level,
                                          const std::string& msg) {
        tracer.instant("log", clock(),
                       std::string("[") + log_level_name(level) + "] " + msg);
      });
}

LogCapture::~LogCapture() { set_thread_log_hook(std::move(previous_)); }

}  // namespace p3::obs
