#include "obs/analysis.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/table.h"

namespace p3::obs {

namespace {

struct GroupKey {
  int worker;
  std::int32_t slice;
  std::int64_t iteration;
  bool operator<(const GroupKey& o) const {
    if (worker != o.worker) return worker < o.worker;
    if (slice != o.slice) return slice < o.slice;
    return iteration < o.iteration;
  }
};

struct Group {
  int priority = 0;
  bool seen[kNumStages] = {};
  TimeS min_t[kNumStages] = {};
  TimeS max_t[kNumStages] = {};

  void record(const LifecycleRecord& r) {
    const auto s = static_cast<std::size_t>(r.stage);
    if (!seen[s]) {
      seen[s] = true;
      min_t[s] = max_t[s] = r.t;
    } else {
      min_t[s] = std::min(min_t[s], r.t);
      max_t[s] = std::max(max_t[s], r.t);
    }
    priority = r.priority;
  }
};

constexpr auto S = [](Stage s) { return static_cast<std::size_t>(s); };

/// The whole of `text` as a T; a partial parse, or a value T cannot hold,
/// throws std::invalid_argument naming `field`.
template <class T>
T parse_field(const std::string& text, const char* field) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument(std::string(field) + " '" + text +
                                "' is out of range");
  }
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(std::string(field) + " '" + text +
                                "' is not a number");
  }
  return v;
}

/// Deterministic group index over the record stream.
std::map<GroupKey, Group> group_records(
    const std::vector<LifecycleRecord>& records) {
  std::map<GroupKey, Group> groups;
  for (const auto& r : records) {
    groups[GroupKey{r.worker, r.slice, r.iteration}].record(r);
  }
  return groups;
}

}  // namespace

Report analyze(const std::vector<LifecycleRecord>& records) {
  Report report;
  report.records = static_cast<std::int64_t>(records.size());

  // Per-priority latency legs over completed round trips.
  struct Acc {
    std::int64_t n = 0;
    double queue = 0, wire = 0, server = 0, ret = 0, total = 0;
  };
  std::map<int, Acc> by_priority;
  for (const auto& [key, g] : group_records(records)) {
    if (!g.seen[S(Stage::kParamReady)]) continue;
    ++report.round_trips;
    Acc& a = by_priority[g.priority];
    ++a.n;
    const TimeS ready = g.min_t[S(Stage::kParamReady)];
    if (g.seen[S(Stage::kGradReady)]) {
      a.total += ready - g.min_t[S(Stage::kGradReady)];
    }
    if (g.seen[S(Stage::kEnqueue)] && g.seen[S(Stage::kSend)]) {
      a.queue += g.min_t[S(Stage::kSend)] - g.min_t[S(Stage::kEnqueue)];
    }
    if (g.seen[S(Stage::kSend)] && g.seen[S(Stage::kServerRecv)]) {
      a.wire += g.min_t[S(Stage::kServerRecv)] - g.min_t[S(Stage::kSend)];
    }
    if (g.seen[S(Stage::kServerRecv)] && g.seen[S(Stage::kAggregate)]) {
      a.server +=
          g.max_t[S(Stage::kAggregate)] - g.min_t[S(Stage::kServerRecv)];
    }
    if (g.seen[S(Stage::kAggregate)]) {
      a.ret += ready - g.max_t[S(Stage::kAggregate)];
    }
  }
  for (const auto& [priority, a] : by_priority) {
    StageBreakdown b;
    b.priority = priority;
    b.round_trips = a.n;
    const double n = static_cast<double>(a.n);
    b.mean_queue_s = a.queue / n;
    b.mean_wire_s = a.wire / n;
    b.mean_server_s = a.server / n;
    b.mean_return_s = a.ret / n;
    b.mean_total_s = a.total / n;
    report.per_priority.push_back(b);
  }

  // Priority inversions + queue depth: replay enqueue/send per worker in
  // stream (simulation) order.
  struct Pending {
    std::int64_t fragments = 0;
    int priority = 0;
  };
  struct WorkerState {
    std::map<std::pair<std::int32_t, std::int64_t>, Pending> pending;
    std::int64_t depth = 0;
    std::int64_t peak = 0;
    double area = 0.0;  ///< integral of depth over time
    TimeS last_t = 0.0;
    TimeS first_t = 0.0;
    bool started = false;
    std::vector<std::pair<TimeS, std::int64_t>> series;
  };
  std::map<int, WorkerState> workers;
  for (const auto& r : records) {
    if (r.stage != Stage::kEnqueue && r.stage != Stage::kSend) continue;
    WorkerState& w = workers[r.worker];
    if (!w.started) {
      w.started = true;
      w.first_t = w.last_t = r.t;
    }
    w.area += static_cast<double>(w.depth) * (r.t - w.last_t);
    w.last_t = r.t;
    const std::pair<std::int32_t, std::int64_t> key{r.slice, r.iteration};
    if (r.stage == Stage::kEnqueue) {
      Pending& p = w.pending[key];
      ++p.fragments;
      p.priority = r.priority;
      ++w.depth;
      w.peak = std::max(w.peak, w.depth);
    } else {
      for (const auto& [other, p] : w.pending) {
        if (other != key && p.fragments > 0 && p.priority < r.priority) {
          report.inversion.bytes += r.bytes;
          ++report.inversion.events;
          break;
        }
      }
      auto it = w.pending.find(key);
      if (it != w.pending.end() && it->second.fragments > 0) {
        --it->second.fragments;
        --w.depth;
        if (it->second.fragments == 0) w.pending.erase(it);
      }
    }
    if (w.series.empty() || w.series.back().first != r.t) {
      w.series.emplace_back(r.t, w.depth);
    } else {
      w.series.back().second = w.depth;
    }
  }
  for (auto& [id, w] : workers) {
    QueueDepthStats q;
    q.worker = id;
    q.peak_depth = w.peak;
    const TimeS window = w.last_t - w.first_t;
    q.mean_depth = window > 0.0 ? w.area / window : 0.0;
    q.series = std::move(w.series);
    report.queues.push_back(std::move(q));
  }
  return report;
}

std::vector<std::string> lifecycle_violations(
    const std::vector<LifecycleRecord>& records, bool strict) {
  std::vector<std::string> violations;
  for (const auto& [key, g] : group_records(records)) {
    // Core chain: stages whose earliest occurrence is causally ordered under
    // every sync method, including recovery re-sends.
    static constexpr Stage kChain[] = {Stage::kGradReady, Stage::kEnqueue,
                                       Stage::kSend, Stage::kServerRecv,
                                       Stage::kAggregate, Stage::kParamReady};
    const Stage* prev = nullptr;
    for (const Stage& s : kChain) {
      if (!g.seen[S(s)]) continue;
      if (prev != nullptr && g.min_t[S(s)] < g.min_t[S(*prev)]) {
        std::ostringstream msg;
        msg << "worker " << key.worker << " slice " << key.slice << " iter "
            << key.iteration << ": " << stage_name(s) << " at "
            << g.min_t[S(s)] << "s precedes " << stage_name(*prev) << " at "
            << g.min_t[S(*prev)] << "s";
        violations.push_back(msg.str());
      }
      prev = &s;
    }
    if (strict && g.seen[S(Stage::kNotify)] && g.seen[S(Stage::kPull)] &&
        g.min_t[S(Stage::kPull)] < g.min_t[S(Stage::kNotify)]) {
      std::ostringstream msg;
      msg << "worker " << key.worker << " slice " << key.slice << " iter "
          << key.iteration << ": pull at " << g.min_t[S(Stage::kPull)]
          << "s precedes notify at " << g.min_t[S(Stage::kNotify)] << "s";
      violations.push_back(msg.str());
    }
  }
  return violations;
}

std::vector<LifecycleRecord> load_lifecycle_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open lifecycle CSV: " + path);
  std::vector<LifecycleRecord> records;
  std::string line;
  bool header = true;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (header) {
      header = false;
      continue;
    }
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::string field;
    std::istringstream row(line);
    while (std::getline(row, field, ',')) fields.push_back(field);
    if (fields.size() != 8) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": expected 8 fields, got " +
                               std::to_string(fields.size()));
    }
    try {
      LifecycleRecord r;
      r.stage = parse_stage(fields[0]);
      r.worker = parse_field<std::int16_t>(fields[1], "worker");
      r.slice = parse_field<std::int32_t>(fields[2], "slice");
      r.layer = parse_field<std::int16_t>(fields[3], "layer");
      r.iteration = parse_field<std::int32_t>(fields[4], "iteration");
      r.priority = parse_field<std::int16_t>(fields[5], "priority");
      r.bytes = parse_field<Bytes>(fields[6], "bytes");
      r.t = parse_field<TimeS>(fields[7], "t");
      records.push_back(r);
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) + ": " +
                               e.what());
    }
  }
  return records;
}

std::string format_report(const Report& report) {
  std::ostringstream out;
  out << "lifecycle records: " << report.records
      << "   completed round trips: " << report.round_trips << "\n\n";

  out << "Per-priority latency breakdown (ms, mean over round trips;"
         " priority 0 = most urgent)\n";
  Table latency({"priority", "round_trips", "queue", "wire", "server",
                 "return", "total"});
  for (const auto& b : report.per_priority) {
    latency.add_row({std::to_string(b.priority),
                     std::to_string(b.round_trips),
                     Table::num(b.mean_queue_s * 1e3, 3),
                     Table::num(b.mean_wire_s * 1e3, 3),
                     Table::num(b.mean_server_s * 1e3, 3),
                     Table::num(b.mean_return_s * 1e3, 3),
                     Table::num(b.mean_total_s * 1e3, 3)});
  }
  out << latency.to_string() << "\n";

  out << "Priority inversions: " << report.inversion.events << " sends, "
      << report.inversion.bytes
      << " bytes of lower-priority traffic sent while a more urgent fragment"
         " was queued\n\n";

  out << "Send-queue depth (fragments)\n";
  Table queues({"worker", "peak", "mean"});
  for (const auto& q : report.queues) {
    queues.add_row({std::to_string(q.worker), std::to_string(q.peak_depth),
                    Table::num(q.mean_depth, 2)});
  }
  out << queues.to_string();
  return out.str();
}

}  // namespace p3::obs
