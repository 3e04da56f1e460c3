// Benchmark program: one pass over one named workload of the simulator.
//
//   p3bench --workload ladder|fig_sweep|rack_chaos --seed N
//           [--trace PATH] [--tiny]
//
// Runs the workload's points back to back on one thread through the
// library's public API and prints one JSON line per point (simulated
// outputs, audit findings, layer counters, wall times), then one summary
// line (peak RSS and build provenance). perfbench/run.py repeats passes,
// compares the outputs with the goldens and reduces the lines to the metrics
// named in BENCHMARK.json; the notes in perfbench/NOTES.md say why each
// workload exists.
//
// --trace PATH records one span per call into a layer (name, start, end,
// parent, point id), keeps them in memory and writes them to PATH as JSON
// lines when the pass ends. It also runs an untraced twin of every point
// that attaches an obs::Tracer, so the tracer's own cost can be measured.
// --tiny runs a scaled-down version of every workload (self-test only).
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/compute.h"
#include "obs/critpath.h"
#include "obs/tracer.h"
#include "ps/cluster.h"

#ifndef P3B_COMPILER
#define P3B_COMPILER "unknown"
#endif
#ifndef P3B_FLAGS
#define P3B_FLAGS "unknown"
#endif
#ifndef P3B_BUILD_TYPE
#define P3B_BUILD_TYPE "unknown"
#endif

namespace {

using namespace p3;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double since_epoch(Clock::time_point t) {
  return std::chrono::duration<double>(t - kEpoch).count();
}

// ---------------------------------------------------------------- JSON out

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that parses back to the same double; null if not finite.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_num(std::int64_t v) { return std::to_string(v); }

/// Accumulates `"key": value` pairs into one JSON object.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + json_str(key) + ": " + value;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_num(v));
  }
  JsonObject& num(const std::string& key, std::int64_t v) {
    return raw(key, json_num(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_str(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------------ spans

/// In-memory span recorder. With recording off, scopes still time their
/// interval (the end-to-end metrics need the durations) but keep nothing.
class Spans {
 public:
  explicit Spans(bool record) : record_(record) {}

  class Scope {
   public:
    Scope(Spans& spans, const char* name, int point)
        : spans_(spans), start_(Clock::now()) {
      if (spans_.record_) index_ = spans_.open(name, point, start_);
    }
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span (idempotent); returns its duration in seconds.
    double stop() {
      if (!stopped_) {
        stopped_ = true;
        const Clock::time_point end = Clock::now();
        seconds_ = std::chrono::duration<double>(end - start_).count();
        if (index_ >= 0) spans_.close(index_, end);
      }
      return seconds_;
    }

   private:
    Spans& spans_;
    Clock::time_point start_;
    int index_ = -1;
    bool stopped_ = false;
    double seconds_ = 0.0;
  };

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open span file " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << JsonObject()
                 .num("id", static_cast<std::int64_t>(i))
                 .num("parent", static_cast<std::int64_t>(s.parent))
                 .num("point", static_cast<std::int64_t>(s.point))
                 .str("name", s.name)
                 .num("start", s.start)
                 .num("end", s.end)
                 .text()
          << '\n';
    }
    if (!out) throw std::runtime_error("failed writing span file " + path);
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    int point = -1;
    double start = 0.0;
    double end = 0.0;
  };

  int open(const char* name, int point, Clock::time_point t) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, point, since_epoch(t), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void close(int index, Clock::time_point t) {
    spans_[static_cast<std::size_t>(index)].end = since_epoch(t);
    // Scopes end in LIFO order, including during exception unwinding.
    open_.pop_back();
  }

  bool record_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ------------------------------------------------------------- workloads

using ModelBuilder = model::Workload (*)();

struct Point {
  std::string name;
  ModelBuilder build = nullptr;
  ps::ClusterConfig cfg;
  int warmup = 1;
  int measured = 3;
  /// Attach an obs::Tracer and run obs::analyze_critical_path afterwards.
  bool traced = false;
  /// Untraced twin of the point with this name (trace passes only).
  std::string twin_of;
};

const char* method_tag(core::SyncMethod m) {
  switch (m) {
    case core::SyncMethod::kBaseline: return "baseline";
    case core::SyncMethod::kSlicingOnly: return "slicing";
    case core::SyncMethod::kP3: return "p3";
    default: throw std::invalid_argument("method outside the benchmark");
  }
}

ps::ClusterConfig seeded(std::uint64_t seed) {
  ps::ClusterConfig cfg;
  cfg.seed = seed;
  cfg.faults.seed = seed;
  return cfg;
}

/// ResNet-50 on a flat fabric with symmetric 10 Gbps NICs, scaled out.
std::vector<Point> ladder(std::uint64_t seed, bool tiny) {
  const std::vector<int> sizes =
      tiny ? std::vector<int>{8} : std::vector<int>{32, 64, 128};
  std::vector<Point> points;
  for (auto method : {core::SyncMethod::kBaseline, core::SyncMethod::kP3}) {
    for (const int n : sizes) {
      Point p;
      p.name = std::string(method_tag(method)) + ".n" + std::to_string(n);
      p.build = model::workload_resnet50;
      p.cfg = seeded(seed);
      p.cfg.n_workers = n;
      p.cfg.method = method;
      p.cfg.bandwidth = gbps(10);
      p.warmup = 1;
      p.measured = tiny ? 1 : 3;
      points.push_back(p);
    }
  }
  return points;
}

/// The Figure 7 setup: 4 workers, egress throttled, ingress at 100 Gbps.
std::vector<Point> fig_sweep(std::uint64_t seed, bool tiny) {
  struct Model {
    const char* tag;
    ModelBuilder build;
  };
  std::vector<Model> models = {{"resnet50", model::workload_resnet50},
                               {"vgg19", model::workload_vgg19},
                               {"sockeye", model::workload_sockeye}};
  std::vector<double> bandwidths = {2.0, 4.0, 8.0};
  if (tiny) {
    models.resize(1);
    bandwidths = {4.0};
  }
  std::vector<Point> points;
  for (const Model& m : models) {
    for (auto method : {core::SyncMethod::kBaseline,
                        core::SyncMethod::kSlicingOnly,
                        core::SyncMethod::kP3}) {
      for (const double bw : bandwidths) {
        Point p;
        p.name = std::string(m.tag) + "." + method_tag(method) + "." +
                 std::to_string(static_cast<int>(bw)) + "g";
        p.build = m.build;
        p.cfg = seeded(seed);
        p.cfg.n_workers = 4;
        p.cfg.method = method;
        p.cfg.bandwidth = gbps(bw);
        p.cfg.rx_bandwidth = gbps(100);
        p.warmup = tiny ? 1 : 2;
        p.measured = tiny ? 2 : 10;
        points.push_back(p);
      }
    }
  }
  return points;
}

/// Two racks behind a 4:1 ToR with rack aggregation, R=2 leased replicas,
/// wire loss and one healing minority cut. The lease outlasts the cut: with
/// a 0.25 s lease, Baseline wedges at rare seeds (perfbench/NOTES.md). Every
/// point finishes by about 7 s of simulated time; the watchdog sits at 12 s
/// instead of the default hour, so a wedged point fails fast.
ps::ClusterConfig chaos_config(std::uint64_t seed, core::SyncMethod method,
                               int n) {
  ps::ClusterConfig cfg = seeded(seed);
  cfg.n_workers = n;
  cfg.method = method;
  cfg.bandwidth = gbps(10);
  cfg.rx_bandwidth = gbps(100);
  net::Topology topo;
  topo.racks.resize(2);
  for (int i = 0; i < n; ++i) topo.racks[i < n / 2 ? 0 : 1].push_back(i);
  topo.oversubscription = 4.0;
  cfg.topology = topo;
  cfg.rack_aggregation = true;
  cfg.replication = 2;
  cfg.checkpoint_period = 0.5;
  cfg.max_sim_time = 12.0;
  cfg.faults.lease_duration = 0.4;
  cfg.faults.drop_prob = 0.002;
  return cfg;
}

std::vector<Point> rack_chaos(std::uint64_t seed, bool tiny, bool twins) {
  const int n = tiny ? 8 : 16;
  std::vector<Point> points;
  for (auto method : {core::SyncMethod::kBaseline, core::SyncMethod::kP3}) {
    Point p;
    p.name = std::string(method_tag(method)) + ".cut";
    p.build = model::workload_resnet50;
    p.cfg = chaos_config(seed, method, n);
    // Minority cut: the last node of rack 0 (not its aggregator) loses the
    // rest of the cluster for a while, then heals.
    net::NetPartition cut;
    cut.side_a = {n / 2 - 1};
    for (int i = 0; i < n; ++i) {
      if (i != n / 2 - 1) cut.side_b.push_back(i);
    }
    cut.start = 0.3;
    cut.heal = 0.6;
    p.cfg.faults.partitions.push_back(cut);
    p.warmup = 1;
    p.measured = tiny ? 2 : 8;
    p.traced = true;
    points.push_back(p);
  }
  if (twins) {
    for (std::size_t i = 0, end = points.size(); i < end; ++i) {
      Point twin = points[i];
      twin.name = points[i].name + ".untraced";
      twin.traced = false;
      twin.twin_of = points[i].name;
      points.push_back(twin);
    }
  }
  Point crash;
  crash.name = "p3.crash";
  crash.build = model::workload_resnet50;
  crash.cfg = chaos_config(seed, core::SyncMethod::kP3, n);
  // Down longer than a lease, so its groups fail over.
  crash.cfg.faults.crashes.push_back({n / 2 + 1, 0.4, 0.6});
  crash.warmup = 1;
  crash.measured = tiny ? 2 : 8;
  points.push_back(crash);
  return points;
}

// ----------------------------------------------------------------- points

double current_rss_mib() {
  long pages_total = 0;
  long pages_resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
      pages_resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// VmHWM, the high-water mark of this process image's resident set. Unlike
/// getrusage's ru_maxrss it is not inherited across exec, so a pass launched
/// from a larger parent still reports its own peak.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 20, '\n');
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string outputs_json(const ps::RunResult& r) {
  std::string times = "[";
  for (std::size_t i = 0; i < r.iteration_times.size(); ++i) {
    times += (i ? ", " : "") + json_num(r.iteration_times[i]);
  }
  times += "]";
  return JsonObject()
      .num("throughput", r.throughput)
      .num("mean_iteration_time", r.mean_iteration_time)
      .num("total_time", r.total_time)
      .num("mean_stall_time", r.mean_stall_time)
      .num("goodput_bytes", r.goodput_bytes)
      .num("wire_bytes", r.wire_bytes)
      .raw("iteration_times", times)
      .text();
}

/// Runs one point and returns its JSON line. Exceptions from the library
/// fail the point, not the pass.
std::string run_point(const Point& p, int id, Spans& spans) {
  JsonObject line;
  line.str("point", p.name)
      .num("id", static_cast<std::int64_t>(id))
      .num("workers", static_cast<std::int64_t>(p.cfg.n_workers))
      .num("iters", static_cast<std::int64_t>(p.warmup + p.measured))
      .boolean("traced", p.traced)
      .str("twin_of", p.twin_of);
  std::vector<std::string> problems;
  std::string outputs = "null";
  std::string error;
  JsonObject counters;
  double setup_s = 0.0;
  Spans::Scope point_span(spans, "point", id);
  try {
    model::Workload workload;
    {
      Spans::Scope s(spans, "model.build", id);
      workload = p.build();
      setup_s += s.stop();
    }
    const double rss_before = current_rss_mib();
    std::unique_ptr<ps::Cluster> cluster;
    {
      Spans::Scope s(spans, "ps.construct", id);
      cluster = std::make_unique<ps::Cluster>(std::move(workload), p.cfg);
      setup_s += s.stop();
    }
    std::unique_ptr<obs::Tracer> tracer;
    if (p.traced) {
      tracer = std::make_unique<obs::Tracer>();
      cluster->attach_tracer(tracer.get());
    }
    ps::RunResult r;
    {
      Spans::Scope s(spans, "ps.run", id);
      r = cluster->run(p.warmup, p.measured);
    }
    const double rss_after_run = current_rss_mib();
    {
      Spans::Scope s(spans, "ps.drain", id);
      cluster->drain();
    }
    obs::BlameReport blame;
    if (p.traced) {
      Spans::Scope s(spans, "obs.critpath", id);
      blame = obs::analyze_critical_path(*tracer, p.warmup);
      for (const std::string& problem : blame.problems) {
        problems.push_back(problem);
      }
    }

    const net::Network& net = cluster->network();
    if (r.iterations_measured != p.measured) {
      problems.push_back("measured " + std::to_string(r.iterations_measured) +
                         " iterations, asked for " +
                         std::to_string(p.measured));
    }
    if (!(r.throughput > 0.0) || !std::isfinite(r.throughput)) {
      problems.push_back("throughput is not a positive number");
    }
    if (net.messages_posted() !=
        net.messages_delivered() + net.messages_dropped()) {
      problems.push_back("after drain, posted != delivered + dropped");
    }
    if (net.cross_partition_deliveries() != 0) {
      problems.push_back("cross_partition_deliveries = " +
                         std::to_string(net.cross_partition_deliveries()));
    }
    if (r.dual_primary_windows != 0) {
      problems.push_back("dual_primary_windows = " +
                         std::to_string(r.dual_primary_windows));
    }
    outputs = outputs_json(r);

    const std::int64_t trace_events =
        tracer ? static_cast<std::int64_t>(tracer->events().size() +
                                           tracer->lifecycle_records().size())
               : 0;
    counters.num("pushes", cluster->pushes_sent())
        .num("params", cluster->params_sent())
        .num("notifies", cluster->notifies_sent())
        .num("pulls", cluster->pulls_sent())
        .num("retransmits", cluster->retransmits())
        .num("timeouts_fired", cluster->timeouts_fired())
        .num("heartbeats_sent", cluster->heartbeats_sent())
        .num("failovers", cluster->failovers())
        .num("goodput_bytes", r.goodput_bytes)
        .num("wire_bytes", r.wire_bytes)
        .num("events",
             static_cast<std::int64_t>(cluster->simulator().events_executed()))
        .num("msgs_posted", net.messages_posted())
        .num("msgs_delivered", net.messages_delivered())
        .num("msgs_dropped", net.messages_dropped())
        .num("remote_bytes", net.bytes_posted_remote())
        .num("uplink_overtakes", net.uplink_overtakes())
        .num("tor_uplink_bytes", net.tor_uplink_bytes())
        .num("trace_events", trace_events)
        .num("critpath_events", blame.events_processed)
        .num("rss_growth_mib", rss_after_run - rss_before);

    {
      Spans::Scope s(spans, "ps.destroy", id);
      cluster.reset();
    }
    if (tracer) {
      Spans::Scope s(spans, "obs.destroy", id);
      tracer.reset();
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double wall_s = point_span.stop();

  std::string problem_list = "[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    problem_list += (i ? ", " : "") + json_str(problems[i]);
  }
  problem_list += "]";
  line.boolean("ok", error.empty() && problems.empty())
      .str("error", error)
      .raw("problems", problem_list)
      .num("wall_s", wall_s)
      .num("setup_s", setup_s)
      .raw("outputs", outputs)
      .raw("counters", error.empty() ? counters.text() : "null");
  return line.text();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  std::string trace_path;
  bool tiny = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--trace") {
      a.trace_path = value();
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const bool trace = !args.trace_path.empty();
    std::vector<Point> points;
    if (args.workload == "ladder") {
      points = ladder(args.seed, args.tiny);
    } else if (args.workload == "fig_sweep") {
      points = fig_sweep(args.seed, args.tiny);
    } else if (args.workload == "rack_chaos") {
      points = rack_chaos(args.seed, args.tiny, trace);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }

    Spans spans(trace);
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::printf("%s\n", run_point(points[i], static_cast<int>(i), spans)
                              .c_str());
      std::fflush(stdout);
    }
    if (trace) spans.write(args.trace_path);
    std::printf("%s\n",
                JsonObject()
                    .boolean("summary", true)
                    .num("peak_rss_mib", peak_rss_mib())
                    .num("nproc", static_cast<std::int64_t>(
                                      sysconf(_SC_NPROCESSORS_ONLN)))
                    .str("compiler", P3B_COMPILER)
                    .str("flags", P3B_FLAGS)
                    .str("build_type", P3B_BUILD_TYPE)
                    .text()
                    .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p3bench: %s\n", e.what());
    return 2;
  }
}
