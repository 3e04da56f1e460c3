// Unified observability: deterministic, sim-time-stamped event tracer.
//
// One Tracer records every observable artifact of a run into an in-memory
// log: complete spans on named tracks, instant events, counter samples,
// flow arrows (sender -> receiver), and structured slice-lifecycle
// records. Renderers then consume the same log: `trace::Timeline` renders
// spans as an ASCII Gantt or CSV, `write_chrome_json()` exports Chrome
// trace-event / Perfetto JSON, and `obs::analysis` derives per-priority
// latency breakdowns from lifecycle records.
//
// Track naming follows the repo-wide lane convention "<process>.<channel>"
// ("w0.cmp", "n3.tx", ...): the prefix before the first '.' becomes the
// Perfetto process, the full name becomes the thread, so every node's
// channels group together in the UI.
//
// Cost model: every record appends one 24-byte event to a log of fixed-size
// chunks that never move; strings live only in the track and label tables,
// whose ids stay below 2^29 (the event kind shares the label id's word).
// Each lifecycle transition appends one 32-byte record to a vector whose
// narrowed fields are checked on the way in.
// As it appends, the tracer files the event's id under its track (spans,
// flow ends) or in the flow-start list and notes whether that list stayed
// in start (flow id) order, so readers such as the critical-path engine and
// the Gantt renderer read the per-track lists instead of copying the log.
// Cold call sites pass strings, which are hashed into the tables on every
// call. Hot call sites (per message, per compute or server step, per
// queue-depth change) resolve their ids through the tracer's id cache
// instead: the site derives an integer key from the name's parts (node and
// channel, message kind and layer) in a key space of its own, and only a
// miss builds the string. A miss interns the string at exactly the point
// the site would have passed it, so track and label ids still follow first
// use and a trace is the same whichever way a site names its lanes. A
// disabled tracer drops events after a single branch; instrumentation
// sites additionally guard with `enabled()` so no keys or strings are
// built either.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "common/units.h"

namespace p3::obs {

/// Stage order of one slice's per-iteration life. The numeric order is the
/// protocol order; `analysis::lifecycle_violations` checks that observed
/// minimum timestamps never regress along it.
enum class Stage : std::uint8_t {
  kGradReady = 0,  ///< backward pass produced the slice's gradient
  kEnqueue,        ///< fragment entered the worker's priority send queue
  kSend,           ///< fragment handed to the NIC (starts serializing)
  kServerRecv,     ///< server popped the fragment from its receive queue
  kAggregate,      ///< server finished folding the contribution in
  kNotify,         ///< worker received the round-complete notification
  kPull,           ///< worker issued the parameter pull request
  kParamReady,     ///< worker holds the full updated slice
};

inline constexpr int kNumStages = 8;

/// Stable short name ("grad_ready", "enqueue", ...) used in CSV headers.
const char* stage_name(Stage stage);

/// Inverse of `stage_name`; throws std::invalid_argument on unknown names.
Stage parse_stage(const std::string& name);

/// One lifecycle stage transition of (worker, slice, iteration), in 32
/// bytes. Each field is as narrow as the values the simulator records:
/// workers and layers number at most a few hundred, and a slice's priority
/// is its layer's forward index (or 0), so those are 16-bit; slice and
/// iteration are 32-bit. Tracer::lifecycle and load_lifecycle_csv reject a
/// value that does not fit instead of truncating it.
struct LifecycleRecord {
  Stage stage = Stage::kGradReady;
  std::int16_t worker = 0;
  std::int16_t layer = 0;
  std::int16_t priority = 0;
  std::int32_t slice = 0;
  std::int32_t iteration = 0;
  Bytes bytes = 0;  ///< payload bytes for kEnqueue/kSend fragments, else 0
  TimeS t = 0.0;
};
static_assert(sizeof(LifecycleRecord) == 32,
              "a lifecycle record must stay compact");

/// Deterministic correlation id for one slice's round trip. Threaded through
/// net::Message so the network layer can attribute wire activity without
/// knowing protocol state.
std::int64_t make_trace_id(std::int64_t slice, std::int64_t iteration,
                           int worker);

enum class EventKind : std::uint8_t {
  kSpan,       ///< [t0, t1) interval on a track
  kInstant,    ///< point event
  kCounter,    ///< sampled value (queue depth etc.)
  kFlowStart,  ///< tail of a flow arrow (binds to the enclosing span)
  kFlowEnd,    ///< head of a flow arrow
};

/// Track and label ids stay below this bound: the label id shares its 32-bit
/// word with the event kind.
inline constexpr std::uint32_t kMaxInternedIds = std::uint32_t{1} << 29;

/// Compact event record (24 bytes); strings live in the intern tables. The
/// kind sits in the top three bits of the label id's word. The end time of
/// a span, the value of a counter and the id of a flow arrow share one
/// slot, so each is read through an accessor that returns the neutral value
/// for every other kind.
struct Event {
  TimeS t0 = 0.0;
  std::uint32_t track = 0;      ///< index into tracks()
  std::uint32_t label : 29 = 0;  ///< index into labels()
  EventKind kind : 3 = EventKind::kSpan;

  /// Spans: end time; other kinds: t0.
  TimeS t1() const { return kind == EventKind::kSpan ? t1_ : t0; }
  /// Counters: the sampled value; other kinds: 0.
  double value() const { return kind == EventKind::kCounter ? value_ : 0.0; }
  /// Flow starts and ends: the arrow's id; other kinds: -1.
  std::int64_t flow() const {
    return kind == EventKind::kFlowStart || kind == EventKind::kFlowEnd
               ? flow_
               : -1;
  }

 private:
  friend class Tracer;
  union {
    TimeS t1_ = 0.0;
    double value_;
    std::int64_t flow_;
  };
};
static_assert(sizeof(Event) == 24, "an event record must stay compact");

/// Append-only event log in fixed-size chunks. A chunk never moves, so a
/// record keeps its address for the life of the log, and growing the log
/// never copies what it already holds. A record's id is its position in
/// record order.
class EventLog {
 public:
  /// Records per chunk: 32K records of 24 bytes, 768 KiB.
  static constexpr std::size_t kChunkRecords = std::size_t{1} << 15;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Event;
    using difference_type = std::ptrdiff_t;
    using pointer = const Event*;
    using reference = const Event&;

    const_iterator() = default;
    const_iterator(const EventLog* log, std::size_t i) : log_(log), i_(i) {}
    reference operator*() const { return (*log_)[i_]; }
    pointer operator->() const { return &(*log_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const EventLog* log_ = nullptr;
    std::size_t i_ = 0;
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Event& operator[](std::size_t id) const {
    return chunks_[id / kChunkRecords][id % kChunkRecords];
  }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// Appends `e` and returns its id.
  std::uint32_t push_back(const Event& e) {
    if (size_ % kChunkRecords == 0) add_chunk();
    std::construct_at(&chunks_.back()[size_ % kChunkRecords], e);
    return static_cast<std::uint32_t>(size_++);
  }
  /// Drops every record and frees every chunk.
  void clear();

 private:
  struct FreeChunk {
    void operator()(Event* chunk) const;
  };
  void add_chunk();

  std::vector<std::unique_ptr<Event[], FreeChunk>> chunks_;
  std::size_t size_ = 0;
};

/// Ids into the event log of one family of records, in record order, and
/// whether their keys (start time, or flow id) never decreased along it.
template <class Key>
struct IdList {
  std::vector<std::uint32_t> ids;
  bool in_order = true;
  Key last{};  ///< key of ids.back()

  void add(std::uint32_t id, Key key) {
    in_order = in_order && (ids.empty() || !(key < last));
    last = key;
    ids.push_back(id);
  }
};

struct Track {
  std::string name;     ///< full lane name, e.g. "n3.tx"
  std::string process;  ///< prefix before the first '.', e.g. "n3"
};

/// Key spaces of the tracer's id cache, one per family of names a hot call
/// site generates. Keys of different spaces never meet, so two families
/// that happen to derive the same integer still get their own ids.
enum class KeySpace : std::uint8_t {
  kNicLane,       ///< net: "n<node>.tx", ".rx", ".drop"
  kPortLane,      ///< net: "r<rack>.up", ".dn" and their ".q" counters
  kMessageLabel,  ///< net::message_label, optionally marked 'x' or 'r'
  kNodeLane,      ///< ps: per-node lanes (".cmp", ".srv", ".sendq", ...)
  kStepLabel,     ///< ps: compute and server steps ("F3", "U3", ...)
};
/// Number of key spaces; kStepLabel must stay the last enumerator.
inline constexpr std::size_t kKeySpaces =
    static_cast<std::size_t>(KeySpace::kStepLabel) + 1;

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Intern a track; repeated calls with the same name return the same id.
  /// Interning past kMaxInternedIds tracks throws std::length_error.
  std::uint32_t track(const std::string& lane);
  /// Intern a label string; the same cap applies.
  std::uint32_t label(const std::string& text);

  /// Id cache for hot call sites: `key` stands for one name of the family
  /// `space`, which `name()` builds. A hit returns the cached id; a miss
  /// interns `name()` exactly as track(name()) would, so first use still
  /// sets the id. clear() empties the cache. A key of kMaxCachedKey or more
  /// is interned by name on every call.
  template <class Name>
  std::uint32_t track(KeySpace space, std::size_t key, Name&& name) {
    return cached(track_cache_, space, key, [&] { return track(name()); });
  }
  /// Label counterpart of the cached track(); its keys never meet tracks'.
  template <class Name>
  std::uint32_t label(KeySpace space, std::size_t key, Name&& name) {
    return cached(label_cache_, space, key, [&] { return label(name()); });
  }
  static constexpr std::size_t kMaxCachedKey = std::size_t{1} << 20;

  // -- Recording (no-ops while disabled) ------------------------------------
  void span(const std::string& lane, TimeS t0, TimeS t1,
            const std::string& label_text);
  void span(std::uint32_t track_id, TimeS t0, TimeS t1, std::uint32_t label_id);
  void instant(const std::string& lane, TimeS t, const std::string& label_text);
  void counter(const std::string& lane, TimeS t, double value);
  void counter(std::uint32_t track_id, TimeS t, double value);
  void flow_start(const std::string& lane, TimeS t, std::int64_t flow_id,
                  const std::string& label_text);
  void flow_start(std::uint32_t track_id, TimeS t, std::int64_t flow_id,
                  std::uint32_t label_id);
  void flow_end(const std::string& lane, TimeS t, std::int64_t flow_id,
                const std::string& label_text);
  void flow_end(std::uint32_t track_id, TimeS t, std::int64_t flow_id,
                std::uint32_t label_id);
  /// Records one lifecycle transition. A worker, layer or priority outside
  /// int16, or a slice or iteration outside int32, throws std::out_of_range.
  void lifecycle(Stage stage, int worker, std::int64_t slice, int layer,
                 std::int64_t iteration, int priority, Bytes bytes, TimeS t);

  // -- Introspection --------------------------------------------------------
  const EventLog& events() const { return events_; }
  const std::vector<Track>& tracks() const { return tracks_; }
  /// Label strings in id order.
  const std::vector<std::string>& labels() const { return labels_; }
  const std::string& label_text(std::uint32_t id) const {
    return labels_.at(id);
  }
  const std::string& track_name(std::uint32_t id) const {
    return tracks_.at(id).name;
  }
  const std::vector<LifecycleRecord>& lifecycle_records() const {
    return lifecycle_;
  }
  bool empty() const { return events_.empty() && lifecycle_.empty(); }
  void clear();

  // -- Per-track index, kept while recording --------------------------------
  /// Ids of the spans on `track`, keyed by start time.
  const IdList<TimeS>& spans_on(std::uint32_t track) const {
    return by_track_.at(track).spans;
  }
  /// Ids of the flow ends on `track`, keyed by their time.
  const IdList<TimeS>& flow_ends_on(std::uint32_t track) const {
    return by_track_.at(track).flow_ends;
  }
  /// Ids of every flow start, keyed by flow id.
  const IdList<std::int64_t>& flow_starts() const { return flow_starts_; }
  /// `list`'s ids stably sorted by start time (ties stay in record order);
  /// only needed for a list that is not `in_order`.
  std::vector<std::uint32_t> by_start(const IdList<TimeS>& list) const;

  /// Well-formedness check: spans and flows must have non-negative duration
  /// and every flow end must reference an earlier flow start with the same
  /// id. Unmatched flow *starts* are allowed (messages still in flight when
  /// the run stopped). Returns human-readable violations (empty == valid).
  std::vector<std::string> validate() const;

  /// validate() plus flow accounting. `flows_in_flight` counts flow starts
  /// that never saw a matching end — not a violation (the run may simply
  /// have stopped with messages on the wire), but a truncated trace drops
  /// exactly these edges from any causal-graph reconstruction, so consumers
  /// (trace_report, critpath) surface the number instead of hiding it.
  struct ValidationStats {
    std::vector<std::string> violations;
    std::int64_t flows_started = 0;
    std::int64_t flows_ended = 0;
    std::int64_t flows_in_flight = 0;  ///< started, never ended
  };
  ValidationStats validate_accounting() const;

  // -- Export ---------------------------------------------------------------
  /// Chrome trace-event JSON (the format Perfetto and chrome://tracing
  /// load). Timestamps are microseconds; tracks map to pid/tid pairs with
  /// process_name/thread_name metadata.
  void write_chrome_json(std::ostream& out) const;
  /// Convenience overload; throws std::runtime_error if the file can't open.
  void write_chrome_json(const std::string& path) const;

  /// Lifecycle records as CSV:
  /// stage,worker,slice,layer,iteration,priority,bytes,t
  void write_lifecycle_csv(const std::string& path) const;

 private:
  static constexpr std::uint32_t kUncached = ~std::uint32_t{0};
  /// Per key space: key -> id, kUncached where the key has not been seen.
  using IdCache = std::array<std::vector<std::uint32_t>, kKeySpaces>;

  template <class Intern>
  static std::uint32_t cached(IdCache& cache, KeySpace space, std::size_t key,
                              Intern&& intern) {
    std::vector<std::uint32_t>& ids = cache[static_cast<std::size_t>(space)];
    if (key < ids.size() && ids[key] != kUncached) return ids[key];
    const std::uint32_t id = intern();
    if (key < kMaxCachedKey) {
      if (key >= ids.size()) ids.resize(key + 1, kUncached);
      ids[key] = id;
    }
    return id;
  }

  struct TrackIndex {
    IdList<TimeS> spans;
    IdList<TimeS> flow_ends;
  };

  static Event make(EventKind kind, std::uint32_t track_id,
                    std::uint32_t label_id, TimeS t0);

  bool enabled_ = true;
  EventLog events_;
  std::vector<TrackIndex> by_track_;  ///< per track, grown as tracks intern
  IdList<std::int64_t> flow_starts_;
  std::vector<Track> tracks_;
  std::unordered_map<std::string, std::uint32_t> track_ids_;
  std::vector<std::string> labels_;
  std::unordered_map<std::string, std::uint32_t> label_ids_;
  IdCache track_cache_;
  IdCache label_cache_;
  std::vector<LifecycleRecord> lifecycle_;
};

/// RAII hook that mirrors this thread's P3_LOG lines into a tracer as
/// instant events on the "log" track, stamped with simulation time. The
/// previous hook (if any) is restored on destruction.
class LogCapture {
 public:
  LogCapture(Tracer& tracer, std::function<TimeS()> clock);
  ~LogCapture();
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

 private:
  LogHook previous_;
};

}  // namespace p3::obs
