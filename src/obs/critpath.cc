#include "obs/critpath.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "sim/prefetch.h"

namespace p3::obs {

namespace {

// Tolerance for matching a lifecycle timestamp against a span edge recorded
// at the same simulated instant. Both sides carry the identical double in
// the common case; the epsilon only absorbs the few sites where one side is
// re-derived arithmetically.
constexpr double kEps = 1e-9;
// Hard step cap per iteration walk: a malformed trace that defeats the
// monotone-cursor invariant terminates instead of spinning.
constexpr int kMaxSteps = 1'000'000;

const char* kBlameNames[kBlameCount] = {
    "forward",  "backward", "sendq",   "inversion", "wire",    "uplink",
    "downlink", "server",   "agghold", "recovery",  "sspwait", "other",
};

/// Ids into the tracer's event log: one track's spans or flow ends in start
/// order, or the flow starts in flow-id order.
using Ids = std::span<const std::uint32_t>;

struct CmpSpan {
  double t0 = 0.0;
  double t1 = 0.0;
  std::int64_t iter = -1;
  int layer = 0;
  bool forward = false;
};

struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Pre-parsed label: leading kind char plus the trailing integer (and
/// whether an 'L' immediately precedes it — the message_label layer suffix).
struct LabelInfo {
  char kind = 0;
  int num = -1;
  bool l_suffix = false;
  /// On a NIC lane: the label carries gradient payload ('g'/'a').
  bool gradient = false;
  /// Slice priority of the label's layer ('L' suffix only), -1 unknown.
  int priority = -1;
};

/// (kind, trailing number, 'L' suffix) packed into one key: what a lane
/// search matches a label by.
std::int64_t label_key(char kind, int num, bool l_suffix) {
  return (static_cast<std::int64_t>(static_cast<unsigned char>(kind)) << 33) |
         (static_cast<std::int64_t>(l_suffix) << 32) |
         static_cast<std::uint32_t>(num);
}

LabelInfo parse_label(const std::string& s) {
  LabelInfo info;
  if (s.empty()) return info;
  info.kind = s.front();
  info.gradient = info.kind == 'g' || info.kind == 'a';
  std::size_t end = s.size();
  std::size_t begin = end;
  while (begin > 0 && std::isdigit(static_cast<unsigned char>(s[begin - 1]))) {
    --begin;
  }
  if (begin < end) {
    info.num = std::atoi(s.c_str() + begin);
    info.l_suffix = begin > 0 && s[begin - 1] == 'L';
  }
  return info;
}

/// Parse "<prefix><digits>.<suffix>" lane names; returns false on others.
bool parse_lane(const std::string& name, char& prefix, int& id,
                std::string& suffix) {
  if (name.size() < 3) return false;
  prefix = name[0];
  std::size_t i = 1;
  while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) {
    ++i;
  }
  if (i == 1 || i >= name.size() || name[i] != '.') return false;
  id = std::atoi(name.c_str() + 1);
  suffix = name.substr(i);
  return true;
}

/// Does some interval cover the instant just below `t`, and where is the
/// nearest boundary at or below `t` otherwise?
struct Cover {
  bool covered = false;
  double boundary = -1e300;  ///< covered: interval lo; else: previous hi
};

Cover cover_at(const std::vector<Interval>& ivs, double t) {
  Cover c;
  auto it = std::lower_bound(
      ivs.begin(), ivs.end(), t,
      [](const Interval& iv, double x) { return iv.lo < x; });
  if (it != ivs.begin()) {
    const Interval& prev = *(it - 1);
    if (prev.hi >= t - kEps && prev.lo < t - kEps) {
      c.covered = true;
      c.boundary = prev.lo;
      return c;
    }
    c.boundary = std::min(prev.hi, t);
  }
  return c;
}

/// The stages of one (worker, slice, iteration) the walk reads, gathered on
/// lookup from the group index.
struct Lifecycle {
  std::array<double, kNumStages> first{};
  std::array<int, kNumStages> n{};
  std::vector<double> sends;     ///< every kSend time, in record order
  std::vector<double> enqueues;  ///< every kEnqueue time, in record order
};

/// The walk's three lookups into the lifecycle records; each stage feeds at
/// most one of them.
enum Lookup : std::uint8_t {
  kGroupLookup,  ///< the stages of one (worker, slice, iteration) it reads
  kRecvLookup,   ///< every kServerRecv of one (slice, iteration)
  kReadyLookup,  ///< every kParamReady of one (worker, layer, iteration)
  kLookups,
};

/// The lookup `s` feeds; kLookups for a stage the walk never looks up.
Lookup lookup_of(Stage s) {
  static constexpr std::array<Lookup, kNumStages> kLookupOf = {
      kGroupLookup,  // kGradReady
      kGroupLookup,  // kEnqueue
      kGroupLookup,  // kSend
      kRecvLookup,   // kServerRecv
      kLookups,      // kAggregate
      kLookups,      // kNotify
      kGroupLookup,  // kPull
      kReadyLookup,  // kParamReady
  };
  return kLookupOf[static_cast<std::size_t>(s)];
}

/// A lookup's key fields, each masked to the width the walk keys it by
/// (make_trace_id's for a group).
using Fields = std::array<std::uint64_t, 3>;

Fields group_fields(std::int64_t worker, std::int64_t slice,
                    std::int64_t iter) {
  return {static_cast<std::uint64_t>(worker) & 0xFF,
          static_cast<std::uint64_t>(iter) & 0xFFFFFFF,
          static_cast<std::uint64_t>(slice) & 0x3FFFFFF};
}

Fields recv_fields(std::int64_t slice, std::int64_t iter) {
  return {static_cast<std::uint64_t>(iter) & 0x3FFFFFFF,
          static_cast<std::uint64_t>(slice) & 0x3FFFFFF, 0};
}

Fields ready_fields(std::int64_t worker, std::int64_t layer,
                    std::int64_t iter) {
  return {static_cast<std::uint64_t>(worker) & 0xFF,
          static_cast<std::uint64_t>(iter) & 0xFFFFFFFF,
          static_cast<std::uint64_t>(layer) & 0xFFFF};
}

/// Every lookup's fields of `r`, and zeros at kLookups: a record picks its
/// own by indexing with its lookup, not by branching on it.
std::array<Fields, kLookups + 1> all_fields(const LifecycleRecord& r) {
  return {group_fields(r.worker, r.slice, r.iteration),
          recv_fields(r.slice, r.iteration),
          ready_fields(r.worker, r.layer, r.iteration), Fields{}};
}

Fields fields_of(Lookup lookup, const LifecycleRecord& r) {
  return all_fields(r)[lookup];
}

/// One lookup's index: the indices of the records it holds, sorted by a
/// key packed from their fields (ties in record order, unless reordered by
/// order_runs). The key gives each field only the bits its largest
/// recorded value needs, so two records share a key exactly when their
/// fields are equal, and a sort by key takes as few radix passes as the
/// trace allows.
struct RecordIndex {
  Fields max{};  ///< largest recorded value of each field
  std::array<int, 3> shift{};
  int bits = 0;
  std::vector<std::uint32_t> ids;

  /// Lays the key out once `max` holds every record's fields.
  void pack() {
    for (std::size_t i = 0; i < max.size(); ++i) {
      shift[i] = bits;
      bits += std::bit_width(max[i]);
    }
  }
  /// The key of a recorded record's fields.
  std::int64_t packed(const Fields& f) const {
    return static_cast<std::int64_t>(f[0] << shift[0] | f[1] << shift[1] |
                                     f[2] << shift[2]);
  }
  /// The key of any `f`; -1, which no record has, where a field is larger
  /// than every recorded one.
  std::int64_t key(const Fields& f) const {
    for (std::size_t i = 0; i < f.size(); ++i) {
      if (f[i] > max[i]) return -1;
    }
    return packed(f);
  }
};

using Lookups = std::array<RecordIndex, kLookups>;

/// Radix digits are at most this wide, so one digit's counts stay in L1.
constexpr int kMaxDigitBits = 11;

/// Sorts every lookup's record indices by key with an LSD radix sort, all
/// lookups over the same number of digits. The one pass over the records
/// files each record's index under its lookup and counts its digits, with
/// no branch on the lookup: records no lookup reads go to a sink. Each
/// lookup's first sorting pass then reads its records in record order, and
/// each later pass reads the records it moves; the indices hold no keys,
/// and a second array exists only while a lookup is sorted. Each lookup's
/// `max` holds its records' largest fields, and its `ids` one slot per
/// record it holds.
void sort_lookups(const std::vector<LifecycleRecord>& records,
                  Lookups& lookups) {
  RecordIndex none;  // the sink's: every field 0, key 0
  std::array<const RecordIndex*, kLookups + 1> index{};
  int passes = 0;
  for (std::size_t l = 0; l < kLookups; ++l) {
    lookups[l].pack();
    index[l] = &lookups[l];
    passes = std::max(passes,
                      (lookups[l].bits + kMaxDigitBits - 1) / kMaxDigitBits);
  }
  index[kLookups] = &none;
  // Per lookup and the sink: digit width, and counts per pass and digit.
  std::array<int, kLookups + 1> width{};
  std::array<std::vector<std::uint32_t>, kLookups + 1> start;
  for (std::size_t l = 0; l <= kLookups; ++l) {
    width[l] = passes == 0 ? 0 : (index[l]->bits + passes - 1) / passes;
    start[l].assign(static_cast<std::size_t>(passes) << width[l], 0);
  }
  // Digit `p` of `key` under lookup `l`'s width, and pass `p`'s counts.
  const auto digit = [&width](std::size_t l, std::int64_t key, int p) {
    const auto mask = (std::uint64_t{1} << width[l]) - 1;
    return (static_cast<std::uint64_t>(key) >> (p * width[l])) & mask;
  };
  const auto counts = [&](std::size_t l, int p) {
    return start[l].data() + (static_cast<std::size_t>(p) << width[l]);
  };
  std::uint32_t sink = 0;
  std::array<std::uint32_t*, kLookups + 1> out{};
  for (std::size_t l = 0; l < kLookups; ++l) out[l] = lookups[l].ids.data();
  out[kLookups] = &sink;
  std::array<std::uint32_t, kLookups + 1> next{};
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    const LifecycleRecord& r = records[i];
    const Lookup l = lookup_of(r.stage);
    const std::int64_t key = index[l]->packed(all_fields(r)[l]);
    for (int p = 0; p < passes; ++p) ++counts(l, p)[digit(l, key, p)];
    out[l][next[l]] = i;
    next[l] += l == kLookups ? 0 : 1;
  }
  std::vector<std::uint32_t> scratch;
  for (std::size_t l = 0; l < kLookups; ++l) {
    std::vector<std::uint32_t>& ids = lookups[l].ids;
    const auto lookup = static_cast<Lookup>(l);
    const std::size_t buckets = std::size_t{1} << width[l];
    for (int p = 0; p < passes; ++p) {
      std::uint32_t* const s = counts(l, p);
      // Every key has the same digit here: the pass would move nothing.
      if (std::find(s, s + buckets, ids.size()) != s + buckets) continue;
      std::exclusive_scan(s, s + buckets, s, std::uint32_t{0});
      scratch.resize(ids.size());
      // After the first pass the records a pass reads are scattered: fetch
      // a few ahead.
      constexpr std::size_t kAhead = 16;
      for (std::size_t j = 0; j < ids.size(); ++j) {
        if (j + kAhead < ids.size()) sim::prefetch(&records[ids[j + kAhead]]);
        const std::uint32_t i = ids[j];
        const std::int64_t key =
            lookups[l].packed(fields_of(lookup, records[i]));
        scratch[s[digit(l, key, p)]++] = i;
      }
      ids.swap(scratch);
    }
  }
}

/// Orders each run of equal keys of `index` by the records' (t, value_of)
/// pair. Records arrive in record order, which is almost always time order,
/// so only a run that is out of order is sorted; the record index breaks
/// ties, so equal pairs keep record order.
template <class ValueOf>
void order_runs(const std::vector<LifecycleRecord>& records, Lookup lookup,
                RecordIndex& index, ValueOf value_of) {
  const auto key_of = [&](std::uint32_t i) {
    return index.packed(fields_of(lookup, records[i]));
  };
  const auto before = [&](std::uint32_t a, std::uint32_t b) {
    const LifecycleRecord& ra = records[a];
    const LifecycleRecord& rb = records[b];
    return std::tuple(ra.t, value_of(ra), a) <
           std::tuple(rb.t, value_of(rb), b);
  };
  std::vector<std::uint32_t>& ids = index.ids;
  for (auto lo = ids.begin(); lo != ids.end();) {
    const std::int64_t key = key_of(*lo);
    auto hi = lo + 1;
    bool sorted = true;
    for (; hi != ids.end() && key_of(*hi) == key; ++hi) {
      sorted = sorted && !before(*hi, *(hi - 1));
    }
    if (!sorted) std::sort(lo, hi, before);
    lo = hi;
  }
}

/// The run of `lookup`'s index whose records have fields `f`.
Ids records_under(const std::vector<LifecycleRecord>& records,
                  const Lookups& lookups, Lookup lookup, const Fields& f) {
  const RecordIndex& index = lookups[lookup];
  const std::int64_t key = index.key(f);
  const auto key_of = [&](std::uint32_t i) {
    return index.packed(fields_of(lookup, records[i]));
  };
  const auto lo = std::lower_bound(
      index.ids.begin(), index.ids.end(), key,
      [&](std::uint32_t i, std::int64_t k) { return key_of(i) < k; });
  const auto hi = std::upper_bound(
      lo, index.ids.end(), key,
      [&](std::int64_t k, std::uint32_t i) { return k < key_of(i); });
  return {lo, hi};
}

/// Latest record of `run` (ascending by t) at or before `t`, nullptr if
/// none.
const LifecycleRecord* last_at_or_before(
    const std::vector<LifecycleRecord>& records, Ids run, double t) {
  const auto it = std::upper_bound(
      run.begin(), run.end(), t,
      [&](double x, std::uint32_t i) { return x < records[i].t; });
  return it == run.begin() ? nullptr : &records[*(it - 1)];
}

/// Lane classes the walk reads, from the lane naming convention.
enum LaneClass : std::uint8_t {
  kNoLane,
  kCmpLane,   ///< "w<i>.cmp"
  kHoldLane,  ///< "w<i>.hold"
  kSspLane,   ///< "w<i>.ssp" (DSSP gate blocks)
  kRxLane,    ///< "n<i>.rx"
  kTxLane,    ///< "n<i>.tx"
  kSrvLane,   ///< "n<i>.srv"
  kAggLane,   ///< "n<i>.agg" (rack fold marks)
  kUpLane,    ///< "r<i>.up"
  kDnLane,    ///< "r<i>.dn"
};
constexpr std::size_t kLaneClasses = 10;

struct LaneKind {
  LaneClass cls = kNoLane;
  int id = -1;  ///< number in the lane name; -1 if the name does not parse
};

LaneKind classify_lane(const std::string& name) {
  char prefix = 0;
  int id = 0;
  std::string suffix;
  LaneKind lk;
  if (!parse_lane(name, prefix, id, suffix)) return lk;
  lk.id = id;
  if (prefix == 'w' && suffix == ".cmp") lk.cls = kCmpLane;
  if (prefix == 'w' && suffix == ".hold") lk.cls = kHoldLane;
  if (prefix == 'w' && suffix == ".ssp") lk.cls = kSspLane;
  if (prefix == 'n' && suffix == ".rx") lk.cls = kRxLane;
  if (prefix == 'n' && suffix == ".tx") lk.cls = kTxLane;
  if (prefix == 'n' && suffix == ".srv") lk.cls = kSrvLane;
  if (prefix == 'n' && suffix == ".agg") lk.cls = kAggLane;
  if (prefix == 'r' && suffix == ".up") lk.cls = kUpLane;
  if (prefix == 'r' && suffix == ".dn") lk.cls = kDnLane;
  return lk;
}

template <class T>
const std::vector<T>& by_id(const std::vector<std::vector<T>>& v, int id) {
  static const std::vector<T> kNone;
  return id >= 0 && static_cast<std::size_t>(id) < v.size()
             ? v[static_cast<std::size_t>(id)]
             : kNone;
}

constexpr int kUnknownPriority = std::numeric_limits<int>::min();

struct Graph {
  const EventLog* log = nullptr;
  std::vector<LabelInfo> labels;
  /// label_key of every label in the table, sorted: a lane search for a key
  /// no label has ends before it reads a span.
  std::vector<std::int64_t> label_keys;
  std::vector<LaneKind> lanes;  ///< per track
  /// Per track: its spans, ascending by t0 (ties in record order). Every
  /// other span view of the graph is a lookup into these.
  std::vector<Ids> spans;
  /// Per track: flow ends, ascending by t0 (ties in record order).
  std::vector<Ids> flow_ends;
  /// Flow starts ascending by id (ties in record order; the last wins).
  Ids flow_starts;
  /// Sorted copies behind the views above whose tracer lists were recorded
  /// out of order; every other view reads the tracer's own list.
  std::vector<std::vector<std::uint32_t>> sorted;
  /// Per lane class: lane number -> track, -1 where there is none.
  std::array<std::vector<std::int32_t>, kLaneClasses> track_of;

  std::vector<int> workers;  ///< ids with compute spans, ascending
  std::vector<std::vector<CmpSpan>> cmp;      ///< worker -> spans
  std::vector<std::vector<double>> iter_end;  ///< worker -> B1 t1s
  std::vector<double> iter0_start;            ///< worker -> first F1 t0
  std::vector<std::vector<Interval>> hold;    ///< park/shed windows
  std::vector<std::vector<Interval>> ssp;     ///< DSSP gate blocks
  std::vector<Interval> up_busy, dn_busy;

  const std::vector<LifecycleRecord>* records = nullptr;
  /// Per lookup: record indices sorted by key. kRecvLookup's runs are then
  /// ordered by (t, worker) and kReadyLookup's by (t, slice).
  Lookups lookups;
  std::vector<int> slice_priority;  ///< slice -> first priority seen

  const LabelInfo& info(std::uint32_t id) const { return labels[id]; }
  bool has_label(char kind, int num, bool l_suffix) const {
    return std::binary_search(label_keys.begin(), label_keys.end(),
                              label_key(kind, num, l_suffix));
  }
  const Event& ev(std::uint32_t id) const { return (*log)[id]; }

  /// Spans of lane `id` of class `cls`; empty if the trace has no such lane.
  Ids lane(LaneClass cls, int id) const {
    const auto& tracks = track_of[cls];
    if (id < 0 || static_cast<std::size_t>(id) >= tracks.size()) return {};
    const std::int32_t t = tracks[static_cast<std::size_t>(id)];
    return t < 0 ? Ids{} : spans[static_cast<std::size_t>(t)];
  }
};

/// Union of the spans on `tracks` (-1 entries skipped). Each track's spans
/// are already in start order, so the union streams them through a merge by
/// start time, one span at a time. Touching spans merge and empty ones drop
/// out, so the union does not depend on the order of spans with equal
/// starts.
template <class Tracks>
std::vector<Interval> busy_union(const Graph& g, const Tracks& tracks) {
  std::vector<Ids> lists;
  for (const std::int32_t t : tracks) {
    if (t >= 0) lists.push_back(g.spans[static_cast<std::size_t>(t)]);
  }
  std::vector<Interval> out;
  for (;;) {
    Ids* next = nullptr;
    for (Ids& list : lists) {
      if (!list.empty() &&
          (next == nullptr || g.ev(list.front()).t0 < g.ev(next->front()).t0)) {
        next = &list;
      }
    }
    if (next == nullptr) return out;
    const Event& s = g.ev(next->front());
    *next = next->subspan(1);
    if (s.t1() <= s.t0) continue;
    if (!out.empty() && s.t0 <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, s.t1());
    } else {
      out.push_back({s.t0, s.t1()});
    }
  }
}

/// Point the graph at the tracer's per-track lists, sorting a copy of only
/// a list recorded out of order, and map lane classes to tracks.
void index_tracks(const Tracer& tracer, Graph& g,
                  std::vector<std::string>& problems) {
  const auto n_tracks = static_cast<std::uint32_t>(tracer.tracks().size());
  const auto in_start_order = [&](const IdList<TimeS>& list) -> Ids {
    if (list.in_order) return list.ids;
    g.sorted.push_back(tracer.by_start(list));
    return g.sorted.back();
  };
  g.spans.reserve(n_tracks);
  g.flow_ends.reserve(n_tracks);
  for (std::uint32_t t = 0; t < n_tracks; ++t) {
    g.spans.push_back(in_start_order(tracer.spans_on(t)));
    g.flow_ends.push_back(in_start_order(tracer.flow_ends_on(t)));
  }
  const IdList<std::int64_t>& starts = tracer.flow_starts();
  if (starts.in_order) {
    g.flow_starts = starts.ids;
  } else {
    std::vector<std::uint32_t> ids = starts.ids;
    std::stable_sort(ids.begin(), ids.end(),
                     [&g](std::uint32_t a, std::uint32_t b) {
                       return g.ev(a).flow() < g.ev(b).flow();
                     });
    g.sorted.push_back(std::move(ids));
    g.flow_starts = g.sorted.back();
  }

  g.lanes.resize(n_tracks);
  for (std::size_t t = 0; t < n_tracks; ++t) {
    const LaneKind lk = classify_lane(tracer.tracks()[t].name);
    g.lanes[t] = lk;
    if (lk.cls == kNoLane) continue;
    auto& tracks = g.track_of[lk.cls];
    const auto id = static_cast<std::size_t>(lk.id);
    if (id >= tracks.size()) tracks.resize(id + 1, -1);
    if (tracks[id] >= 0) {
      problems.push_back(
          "critpath: lanes '" +
          tracer.track_name(static_cast<std::uint32_t>(tracks[id])) +
          "' and '" + tracer.tracks()[t].name + "' name the same lane");
      continue;
    }
    tracks[id] = static_cast<std::int32_t>(t);
  }
}

/// Annotate compute spans with iteration indices: a lane is F1..FL BL..B1
/// repeated; the iteration index increments on each F1 and the iteration
/// completes at its B1.
void index_compute(const Tracer& tracer, Graph& g,
                   std::vector<std::string>& problems) {
  const auto& cmp_tracks = g.track_of[kCmpLane];
  g.cmp.resize(cmp_tracks.size());
  g.iter_end.resize(cmp_tracks.size());
  g.iter0_start.assign(cmp_tracks.size(),
                       std::numeric_limits<double>::infinity());
  for (std::size_t w = 0; w < cmp_tracks.size(); ++w) {
    if (cmp_tracks[w] < 0) continue;
    const Ids raw = g.spans[static_cast<std::size_t>(cmp_tracks[w])];
    if (raw.empty()) continue;
    g.workers.push_back(static_cast<int>(w));
    std::vector<CmpSpan>& spans = g.cmp[w];
    std::vector<double>& ends = g.iter_end[w];
    spans.reserve(raw.size());
    std::int64_t iter = -1;
    for (const std::uint32_t id : raw) {
      const Event& s = g.ev(id);
      const LabelInfo& li = g.info(s.label);
      if (li.kind != 'F' && li.kind != 'B') {
        problems.push_back("critpath: unexpected label '" +
                           tracer.label_text(s.label) + "' on compute lane w" +
                           std::to_string(w) + ".cmp");
        continue;
      }
      if (li.kind == 'F' && li.num == 1) {
        ++iter;
        if (iter == 0) g.iter0_start[w] = s.t0;
      }
      CmpSpan cs;
      cs.t0 = s.t0;
      cs.t1 = s.t1();
      cs.forward = li.kind == 'F';
      cs.layer = li.num - 1;
      cs.iter = iter;
      spans.push_back(cs);
      if (li.kind == 'B' && li.num == 1 && iter >= 0 &&
          static_cast<std::int64_t>(ends.size()) == iter) {
        ends.push_back(s.t1());
      }
    }
  }
}

/// Index the lifecycle records: one array of record indices per lookup the
/// walk makes, sorted by the key the lookup reads from the record, and the
/// first priority seen per slice and per layer.
void index_lifecycle(const Tracer& tracer, Graph& g) {
  const auto& records = tracer.lifecycle_records();
  if (records.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("critpath: too many lifecycle records to index");
  }
  g.records = &records;
  std::vector<int> layer_priority;
  const auto first_seen = [](std::vector<int>& priority, std::size_t at,
                             int p) {
    if (at >= priority.size()) priority.resize(at + 1, kUnknownPriority);
    if (priority[at] == kUnknownPriority) priority[at] = p;
  };
  // Per lookup, and at kLookups for the records none reads: how many
  // records it holds and the largest value of each field.
  std::array<std::uint32_t, kLookups + 1> count{};
  std::array<Fields, kLookups + 1> max{};
  for (const LifecycleRecord& r : records) {
    if (r.slice >= 0) {
      first_seen(g.slice_priority, static_cast<std::size_t>(r.slice),
                 r.priority);
    }
    if (r.layer >= 0) {
      first_seen(layer_priority, static_cast<std::size_t>(r.layer),
                 r.priority);
    }
    const Lookup l = lookup_of(r.stage);
    const Fields f = all_fields(r)[l];
    for (std::size_t i = 0; i < f.size(); ++i) {
      max[l][i] = std::max(max[l][i], f[i]);
    }
    ++count[l];
  }
  for (std::size_t l = 0; l < kLookups; ++l) {
    g.lookups[l].max = max[l];
    g.lookups[l].ids.resize(count[l]);
  }
  sort_lookups(records, g.lookups);
  order_runs(records, kRecvLookup, g.lookups[kRecvLookup],
             [](const LifecycleRecord& r) { return r.worker; });
  order_runs(records, kReadyLookup, g.lookups[kReadyLookup],
             [](const LifecycleRecord& r) { return r.slice; });

  // A NIC span's label names its layer; the lifecycle stream supplies the
  // layer -> priority map.
  for (LabelInfo& li : g.labels) {
    if (!li.l_suffix) continue;
    const auto layer = static_cast<std::size_t>(li.num);
    if (layer < layer_priority.size() &&
        layer_priority[layer] != kUnknownPriority) {
      li.priority = layer_priority[layer];
    }
  }
}

Graph build_graph(const Tracer& tracer, std::vector<std::string>& problems) {
  Graph g;
  g.log = &tracer.events();
  g.labels.reserve(tracer.labels().size());
  for (const std::string& text : tracer.labels()) {
    g.labels.push_back(parse_label(text));
    const LabelInfo& li = g.labels.back();
    g.label_keys.push_back(label_key(li.kind, li.num, li.l_suffix));
  }
  std::sort(g.label_keys.begin(), g.label_keys.end());
  index_tracks(tracer, g, problems);
  index_compute(tracer, g, problems);
  const auto per_lane = [&](LaneClass cls) {
    std::vector<std::vector<Interval>> out;
    for (const std::int32_t t : g.track_of[cls]) {
      out.push_back(busy_union(g, std::array<std::int32_t, 1>{t}));
    }
    return out;
  };
  g.hold = per_lane(kHoldLane);
  g.ssp = per_lane(kSspLane);
  // A switch-port class is busy while any of its racks' ports is.
  g.up_busy = busy_union(g, g.track_of[kUpLane]);
  g.dn_busy = busy_union(g, g.track_of[kDnLane]);
  index_lifecycle(tracer, g);

  if (g.workers.empty()) {
    problems.push_back("critpath: trace has no worker compute spans");
  }
  return g;
}

// -- Graph queries ----------------------------------------------------------

/// Latest span on the lane with a matching label whose end is <= t (+eps).
/// Lane spans are sequential, so t1 order follows t0 order: binary-search
/// the start times, then scan backward for the label.
const Event* find_span_ending_at(Ids spans, double t, const Graph& g,
                                 char kind, int num, bool l_suffix) {
  if (!g.has_label(kind, num, l_suffix)) return nullptr;
  auto it = std::upper_bound(
      spans.begin(), spans.end(), t + kEps,
      [&g](double x, std::uint32_t id) { return x < g.ev(id).t0; });
  while (it != spans.begin()) {
    --it;
    const Event& s = g.ev(*it);
    if (s.t1() > t + kEps) continue;
    const LabelInfo& li = g.info(s.label);
    if (li.kind == kind && li.num == num && li.l_suffix == l_suffix) {
      return &s;
    }
  }
  return nullptr;
}

// -- The backward walk ------------------------------------------------------

class Walker {
 public:
  Walker(const Graph& g, IterationBlame& out, double window_start,
         std::int64_t& stalls)
      : g_(g),
        out_(out),
        ws_(window_start),
        cursor_(out.window_end),
        stalls_(stalls) {}

  void run() {
    int worker = out_.binding_worker;
    while (!done()) {
      worker = step_compute(worker);
      if (worker < 0) break;
    }
    if (cursor_ > ws_ + kEps) take(ws_, Blame::kOther);
  }

 private:
  bool done() const { return cursor_ <= ws_ + kEps || steps_ > kMaxSteps; }

  /// Attribute [max(from, window_start), cursor] to `cat`, move the cursor.
  /// A milestone later than the cursor (matching slop) attributes nothing.
  void take(double from, Blame cat) {
    if (from > cursor_) from = cursor_;
    const double lo = std::max(from, ws_);
    if (cursor_ > lo) {
      out_.seconds[static_cast<std::size_t>(cat)] += cursor_ - lo;
      cursor_ = lo;
    }
    ++steps_;
  }

  /// Mid-chain dead end: attribute the rest of the window to `other`.
  bool stall_chain() {
    ++stalls_;
    take(ws_, Blame::kOther);
    return false;
  }

  /// Walk one compute step at `worker`; returns the worker whose timeline
  /// the walk continues on (a gate chain hands off to a contributor), or
  /// -1 when the window is fully attributed or the walk stalled.
  int step_compute(int worker) {
    const std::vector<CmpSpan>& spans = by_id(g_.cmp, worker);
    if (spans.empty()) {
      stall_chain();
      return -1;
    }
    // Last span starting strictly before the cursor.
    auto sit = std::upper_bound(
        spans.begin(), spans.end(), cursor_ - kEps,
        [](double t, const CmpSpan& s) { return t < s.t0; });
    if (sit == spans.begin()) {
      take(ws_, Blame::kOther);  // window predates this worker's first span
      return -1;
    }
    const CmpSpan& s = *(sit - 1);
    if (s.t1 < cursor_ - kEps) take(s.t1, Blame::kOther);  // idle sliver
    if (done()) return -1;
    take(s.t0, s.forward ? Blame::kForward : Blame::kBackward);
    if (done()) return -1;
    const bool has_prev = sit - 1 != spans.begin();
    const double prev_end = has_prev ? (sit - 2)->t1 : -1e300;
    if (cursor_ <= prev_end + kEps) return worker;  // back-to-back spans
    if (s.forward) {
      // DSSP staleness gate: when the gap below a forward span lands inside
      // a blocked window on the worker's ssp lane, the min-clock floor — not
      // a parameter delivery — was the binding constraint.
      const Cover sc = cover_at(by_id(g_.ssp, worker), cursor_);
      if (sc.covered) {
        take(sc.boundary, Blame::kSspWait);
        return done() ? -1 : worker;
      }
      const int next = resolve_gate(worker, s.layer, s.iter);
      if (next != kGateUnresolved) return next;
    }
    if (!has_prev) {
      take(ws_, Blame::kOther);
      return -1;
    }
    take(prev_end, Blame::kOther);  // non-gate gap (scheduling slop)
    return worker;
  }

  static constexpr int kGateUnresolved = -2;

  /// Resolve the gate wait before F_{layer+1} of `iter` at `worker`.
  /// Returns the worker to continue on, -1 if the walk finished or stalled,
  /// or kGateUnresolved if the chain could not even start (the caller falls
  /// back to a plain-gap attribution).
  int resolve_gate(int worker, int layer, std::int64_t iter) {
    if (iter <= 0) return kGateUnresolved;
    const Ids run = records_under(*g_.records, g_.lookups, kReadyLookup,
                                  ready_fields(worker, layer, iter - 1));
    // Binding slice: latest param-ready at or before the gate release.
    const LifecycleRecord* ready =
        last_at_or_before(*g_.records, run, cursor_ + kEps);
    if (ready == nullptr) return kGateUnresolved;
    const double pr = ready->t;
    const std::int64_t slice = ready->slice;
    take(pr, Blame::kOther);  // gate release -> span start sliver
    current_worker_ = -1;
    if (!resolve_param_arrival(worker, slice, layer, iter - 1)) return -1;
    if (done()) return -1;
    return current_worker_;
  }

  /// Chain: parameter delivery of (slice, round) completing at the cursor on
  /// `worker`'s node. On success the cursor sits at a kGradReady boundary
  /// and current_worker_ names the contributor.
  bool resolve_param_arrival(int worker, std::int64_t slice, int layer,
                             std::int64_t round) {
    const Event* rx_span = find_span_ending_at(g_.lane(kRxLane, worker),
                                                 cursor_, g_, 'p', layer,
                                                 true);
    // Only accept a params rx that ends *at* the cursor: an earlier one
    // belongs to a sibling slice and would skip real wait time.
    if (rx_span != nullptr && rx_span->t1() < cursor_ - kEps) rx_span = nullptr;
    int src = worker;  // loopback default: the server shares the node
    if (rx_span != nullptr) {
      src = follow_link(*rx_span);
      if (src < 0) return stall_chain();
    }
    return resolve_param_source(src, worker, slice, layer, round);
  }

  /// The cursor sits where node `src` posted (or relayed) the params for
  /// (slice, round) toward `worker`. Identify the tightest predecessor:
  /// the server's round release (U span), a rack relay hop, or a pull serve.
  bool resolve_param_source(int src, int worker, std::int64_t slice, int layer,
                            std::int64_t round) {
    for (int hop = 0; hop < 8; ++hop) {
      if (done()) return true;
      const Event* u = find_span_ending_at(g_.lane(kSrvLane, src), cursor_,
                                             g_, 'U', layer + 1, false);
      const Event* relay = find_span_ending_at(g_.lane(kRxLane, src),
                                                 cursor_, g_, 'P', layer, true);
      const Event* pull = find_span_ending_at(g_.lane(kRxLane, src), cursor_,
                                                g_, 'q', layer, true);
      // The binding predecessor is the latest-finishing candidate.
      const Event* best = u;
      char kind = 'U';
      if (relay != nullptr && (best == nullptr || relay->t1() > best->t1())) {
        best = relay;
        kind = 'P';
      }
      if (pull != nullptr && (best == nullptr || pull->t1() > best->t1())) {
        best = pull;
        kind = 'q';
      }
      if (best == nullptr) return stall_chain();
      if (kind == 'U') {
        take(best->t1(), Blame::kWire);    // egress backlog after release
        take(best->t0, Blame::kServer);  // aggregation + optimizer
        return resolve_contribution(src, slice, layer, round);
      }
      if (kind == 'P') {
        take(best->t1(), Blame::kWire);
        src = follow_link(*best);
        if (src < 0) return stall_chain();
        continue;  // one relay hop closer to the server
      }
      // Pull serve: rxq wait + handling at the server, then the request's
      // journey back to the worker, then notify delivery before that.
      take(best->t1(), Blame::kServer);
      if (follow_link(*best) < 0) return stall_chain();
      Lifecycle lc;
      if (group(worker, slice, round, lc) &&
          lc.n[static_cast<std::size_t>(Stage::kPull)] > 0) {
        take(lc.first[static_cast<std::size_t>(Stage::kPull)], Blame::kWire);
      }
      const Event* notify = find_span_ending_at(g_.lane(kRxLane, worker),
                                                  cursor_, g_, 'n', layer,
                                                  true);
      if (notify != nullptr) {
        take(notify->t1(), Blame::kWire);  // waiting on sibling notifies
        src = follow_link(*notify);
        if (src < 0) return stall_chain();
      }
      // Either way the cursor now precedes the round's pull and notify, so
      // the next hop resolves to the server's U release.
    }
    return stall_chain();
  }

  /// Below the U span: the last-arriving contribution for (slice, round).
  bool resolve_contribution(int server, std::int64_t slice, int layer,
                            std::int64_t round) {
    if (done()) return true;
    const Ids run = records_under(*g_.records, g_.lookups, kRecvLookup,
                                  recv_fields(slice, round));
    const LifecycleRecord* recv =
        last_at_or_before(*g_.records, run, cursor_ + kEps);
    if (recv == nullptr) return stall_chain();
    const double sr = recv->t;
    const int contributor = recv->worker;
    take(sr, Blame::kServer);
    // The push's rx completion precedes the rxq pop: direct ("gL") or
    // rack-combined ("aL").
    const Event* direct = find_span_ending_at(g_.lane(kRxLane, server),
                                                cursor_, g_, 'g', layer, true);
    const Event* combined = find_span_ending_at(g_.lane(kRxLane, server),
                                                  cursor_, g_, 'a', layer,
                                                  true);
    const Event* rx_span = direct;
    bool is_combined = false;
    if (combined != nullptr &&
        (rx_span == nullptr || combined->t1() > rx_span->t1())) {
      rx_span = combined;
      is_combined = true;
    }
    if (rx_span != nullptr) {
      take(rx_span->t1(), Blame::kServer);  // receive-queue wait
      const int sender = follow_link(*rx_span);
      if (sender < 0) return stall_chain();
      return resolve_sender(sender, slice, layer, round, is_combined);
    }
    // Loopback push: the contributor shares the server's node.
    return resolve_sender(contributor, slice, layer, round, false);
  }

  /// The cursor sits at (or above) the sender's NIC hand-off for the push of
  /// (slice, round) from `sender`. Unwind send queue, parking, retransmit
  /// waits, and — for rack-combined pushes — the aggregation hold.
  bool resolve_sender(int sender, std::int64_t slice, int layer,
                      std::int64_t round, bool combined) {
    if (done()) return true;
    Lifecycle lc;
    if (!group(sender, slice, round, lc) || lc.sends.empty()) {
      return stall_chain();
    }
    // Latest kSend at or before the cursor: the delivered copy.
    auto sit = std::upper_bound(lc.sends.begin(), lc.sends.end(),
                                cursor_ + kEps);
    if (sit == lc.sends.begin()) return stall_chain();
    const double tsend = *(sit - 1);
    take(tsend, Blame::kWire);  // loopback serialization / send-overhead slop
    // Matching enqueue: latest at or before the send.
    auto eit = std::upper_bound(lc.enqueues.begin(), lc.enqueues.end(),
                                tsend + kEps);
    if (eit == lc.enqueues.begin()) return stall_chain();
    const double tenq = *(eit - 1);
    // Earlier kSend attempts after this enqueue are retransmissions of the
    // same copy: the span back to the first attempt is recovery wait.
    auto first_try = std::lower_bound(lc.sends.begin(), lc.sends.end(),
                                      tenq - kEps);
    if (first_try != lc.sends.end() && *first_try < tsend - kEps) {
      take(*first_try, Blame::kRecovery);
    }
    attribute_queue_wait(sender, tenq, priority_of(slice));
    if (done()) return true;
    if (combined) {
      // Rack pre-reduction: before the combined push entered the
      // aggregator's queue it waited for the closing member contribution.
      const Event* fold = find_span_ending_at(g_.lane(kAggLane, sender),
                                                cursor_, g_, 'f', layer + 1,
                                                false);
      if (fold == nullptr) return stall_chain();
      take(fold->t1(), Blame::kAggHold);
      const Event* mrx = find_span_ending_at(g_.lane(kRxLane, sender),
                                               cursor_, g_, 'g', layer, true);
      if (mrx != nullptr && mrx->t1() >= fold->t1() - kEps) {
        take(mrx->t1(), Blame::kAggHold);
        const int member = follow_link(*mrx);
        if (member < 0) return stall_chain();
        return resolve_sender(member, slice, layer, round, false);
      }
      // The closing member was the aggregator itself (loopback fold).
      return resolve_sender(sender, slice, layer, round, false);
    }
    const auto gr = static_cast<std::size_t>(Stage::kGradReady);
    if (lc.n[gr] == 0) return stall_chain();
    take(lc.first[gr], Blame::kSendQueue);
    current_worker_ = sender;
    return true;
  }

  /// rx span -> flow arrow -> tx span, attributing receiver serialization,
  /// in-flight time (split against switch-port busy intervals) and sender
  /// serialization. Returns the sending node, -1 on a broken link.
  int follow_link(const Event& rx_span) {
    take(rx_span.t0, Blame::kWire);
    const Event* fe = find_flow_end(rx_span);
    if (fe == nullptr) return -1;
    const Event* f = find_flow_start(fe->flow());
    if (f == nullptr) return -1;
    const Event* tx_span = find_span_starting_at(f->track, f->t0, f->label);
    if (tx_span == nullptr) return -1;
    attribute_inflight(tx_span->t1());
    take(tx_span->t0, Blame::kWire);
    return g_.lanes[f->track].id;
  }

  /// The last recorded start of flow `id`.
  const Event* find_flow_start(std::int64_t id) const {
    const Ids starts = g_.flow_starts;
    const auto by_flow = [this](std::int64_t x, std::uint32_t f) {
      return x < g_.ev(f).flow();
    };
    const auto it = std::upper_bound(starts.begin(), starts.end(), id, by_flow);
    if (it == starts.begin() || g_.ev(*(it - 1)).flow() != id) return nullptr;
    return &g_.ev(*(it - 1));
  }

  const Event* find_flow_end(const Event& rx_span) const {
    const Ids ends = g_.flow_ends[rx_span.track];
    auto it = std::lower_bound(
        ends.begin(), ends.end(), rx_span.t0 - kEps,
        [this](std::uint32_t e, double t) { return g_.ev(e).t0 < t; });
    for (; it != ends.end(); ++it) {
      const Event& fe = g_.ev(*it);
      if (fe.t0 > rx_span.t0 + kEps) break;
      if (fe.label == rx_span.label) return &fe;
    }
    return nullptr;
  }

  const Event* find_span_starting_at(std::uint32_t track, double t,
                                     std::uint32_t label) const {
    const Ids spans = g_.spans[track];
    auto it = std::lower_bound(
        spans.begin(), spans.end(), t - kEps,
        [this](std::uint32_t s, double x) { return g_.ev(s).t0 < x; });
    for (; it != spans.end(); ++it) {
      const Event& s = g_.ev(*it);
      if (s.t0 > t + kEps) break;
      if (s.label == label) return &s;
    }
    return nullptr;
  }

  /// Split [from, cursor] between uplink-port, downlink-port and plain wire
  /// time by overlap with the switch ports' busy intervals.
  void attribute_inflight(double from) {
    while (cursor_ > std::max(from, ws_) + kEps && steps_ <= kMaxSteps) {
      const Cover up = cover_at(g_.up_busy, cursor_);
      if (up.covered) {
        take(std::max(from, up.boundary), Blame::kUplink);
        continue;
      }
      const Cover dn = cover_at(g_.dn_busy, cursor_);
      if (dn.covered) {
        take(std::max(from, dn.boundary), Blame::kDownlink);
        continue;
      }
      double boundary = std::max(up.boundary, dn.boundary);
      if (boundary >= cursor_ - kEps) boundary = from;  // no progress: close
      take(std::max(from, boundary), Blame::kWire);
    }
    take(from, Blame::kWire);
  }

  /// Split the send-queue wait [from, cursor] at `node` between recovery
  /// parking (hold-lane overlap), priority inversion (NIC busy with strictly
  /// lower-priority gradients) and plain queue wait.
  void attribute_queue_wait(int node, double from, int priority) {
    const std::vector<Interval>& holds = by_id(g_.hold, node);
    const Ids busy = g_.lane(kTxLane, node);
    while (cursor_ > std::max(from, ws_) + kEps && steps_ <= kMaxSteps) {
      const Cover h = cover_at(holds, cursor_);
      if (h.covered) {
        take(std::max(from, h.boundary), Blame::kRecovery);
        continue;
      }
      // Spans on one NIC lane are sequential, so only the last span starting
      // below the cursor can cover it.
      const Event* cover = nullptr;
      double boundary = -1e300;
      const auto it = std::lower_bound(
          busy.begin(), busy.end(), cursor_,
          [this](std::uint32_t b, double t) { return g_.ev(b).t0 < t; });
      if (it != busy.begin()) {
        const Event& b = g_.ev(*(it - 1));
        if (b.t1() >= cursor_ - kEps && b.t0 < cursor_ - kEps) {
          cover = &b;
        } else {
          boundary = std::min(b.t1(), cursor_);
        }
      }
      if (cover != nullptr) {
        const LabelInfo& li = g_.info(cover->label);
        const bool inverted =
            li.gradient && priority >= 0 && li.priority > priority;
        take(std::max(from, cover->t0),
             inverted ? Blame::kInversion : Blame::kSendQueue);
        continue;
      }
      if (boundary >= cursor_ - kEps || boundary <= -1e299) boundary = from;
      take(std::max(from, boundary), Blame::kSendQueue);
    }
    take(from, Blame::kSendQueue);
  }

  /// Gather the (worker, slice, iteration) records the walk reads into `out`;
  /// false if there are none.
  bool group(int worker, std::int64_t slice, std::int64_t iter,
             Lifecycle& out) const {
    const Ids run = records_under(*g_.records, g_.lookups, kGroupLookup,
                                  group_fields(worker, slice, iter));
    if (run.empty()) return false;
    for (const std::uint32_t i : run) {
      const LifecycleRecord& r = (*g_.records)[i];
      const auto st = static_cast<std::size_t>(r.stage);
      if (out.n[st] == 0 || r.t < out.first[st]) out.first[st] = r.t;
      ++out.n[st];
      if (r.stage == Stage::kSend) out.sends.push_back(r.t);
      if (r.stage == Stage::kEnqueue) out.enqueues.push_back(r.t);
    }
    return true;
  }

  int priority_of(std::int64_t slice) const {
    if (slice < 0 ||
        static_cast<std::size_t>(slice) >= g_.slice_priority.size()) {
      return -1;
    }
    const int p = g_.slice_priority[static_cast<std::size_t>(slice)];
    return p == kUnknownPriority ? -1 : p;
  }

  const Graph& g_;
  IterationBlame& out_;
  double ws_;
  double cursor_;
  int steps_ = 0;
  std::int64_t& stalls_;
  int current_worker_ = -1;
};

}  // namespace

const char* blame_name(Blame b) { return kBlameNames[static_cast<int>(b)]; }

double IterationBlame::attributed() const {
  double sum = 0.0;
  for (double s : seconds) sum += s;
  return sum;
}

double BlameReport::share(Blame b) const {
  return total_s > 0.0 ? totals[static_cast<std::size_t>(b)] / total_s : 0.0;
}

double BlameReport::network_share() const {
  return share(Blame::kSendQueue) + share(Blame::kInversion) +
         share(Blame::kWire) + share(Blame::kUplink) + share(Blame::kDownlink);
}

BlameReport analyze_critical_path(const Tracer& tracer, int skip_iterations) {
  BlameReport report;
  report.events_processed = static_cast<std::int64_t>(tracer.events().size());
  const Graph g = build_graph(tracer, report.problems);
  if (!report.problems.empty()) return report;

  // Iterations every worker completed.
  std::size_t n_iters = 0;
  bool first = true;
  for (const int w : g.workers) {
    const std::size_t ends = g.iter_end[static_cast<std::size_t>(w)].size();
    n_iters = first ? ends : std::min(n_iters, ends);
    first = false;
  }
  if (n_iters == 0) {
    report.problems.push_back("critpath: no complete iterations in trace");
    return report;
  }
  const auto skip = static_cast<std::size_t>(std::max(0, skip_iterations));
  if (skip >= n_iters) {
    report.problems.push_back(
        "critpath: skip_iterations covers every complete iteration");
    return report;
  }

  const auto global_end = [&](std::size_t i) {
    double e = -1e300;
    int binding = 0;
    for (const int w : g.workers) {
      const auto& ends = g.iter_end[static_cast<std::size_t>(w)];
      if (i < ends.size() && ends[i] > e) {
        e = ends[i];
        binding = w;
      }
    }
    return std::make_pair(e, binding);
  };

  double window_start;
  if (skip == 0) {
    window_start = 1e300;
    for (const int w : g.workers) {
      window_start =
          std::min(window_start, g.iter0_start[static_cast<std::size_t>(w)]);
    }
    if (window_start >= 1e299) window_start = 0.0;
  } else {
    window_start = global_end(skip - 1).first;
  }

  for (std::size_t i = skip; i < n_iters; ++i) {
    const auto [end, binding] = global_end(i);
    IterationBlame ib;
    ib.iteration = static_cast<std::int64_t>(i);
    ib.window_start = window_start;
    ib.window_end = end;
    ib.binding_worker = binding;
    if (end < window_start - kEps) {
      report.problems.push_back(
          "critpath: iteration " + std::to_string(i) +
          " ends before the previous one (non-monotone finish line)");
      return report;
    }
    Walker walker(g, ib, window_start, report.chain_stalls);
    walker.run();
    report.iterations.push_back(ib);
    window_start = end;
  }

  for (const IterationBlame& ib : report.iterations) {
    for (int c = 0; c < kBlameCount; ++c) {
      report.totals[static_cast<std::size_t>(c)] +=
          ib.seconds[static_cast<std::size_t>(c)];
    }
    report.total_s += ib.window();
  }
  return report;
}

// -- What-if estimation -----------------------------------------------------

double estimate_mean_iteration(const BlameReport& report,
                               const std::array<double, kBlameCount>& keep) {
  if (report.iterations.empty()) return 0.0;
  double sum = 0.0;
  for (const IterationBlame& ib : report.iterations) {
    double t = 0.0;
    for (int c = 0; c < kBlameCount; ++c) {
      t += ib.seconds[static_cast<std::size_t>(c)] *
           keep[static_cast<std::size_t>(c)];
    }
    sum += t;
  }
  return sum / static_cast<double>(report.iterations.size());
}

std::vector<WhatIf> standard_what_ifs(const BlameReport& report) {
  std::vector<WhatIf> panel;
  if (report.iterations.empty()) return panel;
  const double measured =
      report.total_s / static_cast<double>(report.iterations.size());
  const auto add = [&](const std::string& name,
                       const std::array<double, kBlameCount>& keep) {
    WhatIf w;
    w.name = name;
    w.estimated_mean_iteration_s = estimate_mean_iteration(report, keep);
    w.speedup_vs_measured = w.estimated_mean_iteration_s > 0.0
                                ? measured / w.estimated_mean_iteration_s
                                : 0.0;
    panel.push_back(std::move(w));
  };
  std::array<double, kBlameCount> keep;
  keep.fill(1.0);
  for (Blame b : {Blame::kSendQueue, Blame::kInversion, Blame::kWire,
                  Blame::kUplink, Blame::kDownlink}) {
    keep[static_cast<std::size_t>(b)] = 0.0;
  }
  add("infinite_bandwidth", keep);
  keep.fill(1.0);
  keep[static_cast<std::size_t>(Blame::kServer)] = 0.0;
  keep[static_cast<std::size_t>(Blame::kAggHold)] = 0.0;
  add("zero_server", keep);
  keep.fill(1.0);
  for (Blame b : {Blame::kSendQueue, Blame::kInversion, Blame::kWire,
                  Blame::kUplink, Blame::kDownlink}) {
    keep[static_cast<std::size_t>(b)] = 0.5;
  }
  add("network_2x", keep);
  return panel;
}

BlameDiff diff_blame(const BlameReport& a, const BlameReport& b) {
  BlameDiff d;
  const std::size_t n = std::min(a.iterations.size(), b.iterations.size());
  d.iterations_compared = static_cast<std::int64_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < kBlameCount; ++c) {
      d.delta_seconds[static_cast<std::size_t>(c)] +=
          b.iterations[i].seconds[static_cast<std::size_t>(c)] -
          a.iterations[i].seconds[static_cast<std::size_t>(c)];
    }
    d.delta_total_s += b.iterations[i].window() - a.iterations[i].window();
  }
  return d;
}

// -- Rendering --------------------------------------------------------------

std::string format_blame(const BlameReport& report) {
  std::ostringstream out;
  char buf[256];
  out << "critical-path blame (seconds per iteration window)\n";
  std::snprintf(buf, sizeof buf, "%5s %5s %10s", "iter", "bind", "window");
  out << buf;
  for (int c = 0; c < kBlameCount; ++c) {
    std::snprintf(buf, sizeof buf, " %9s", kBlameNames[c]);
    out << buf;
  }
  out << '\n';
  for (const IterationBlame& ib : report.iterations) {
    std::snprintf(buf, sizeof buf, "%5lld %5d %10.6f",
                  static_cast<long long>(ib.iteration), ib.binding_worker,
                  ib.window());
    out << buf;
    for (int c = 0; c < kBlameCount; ++c) {
      std::snprintf(buf, sizeof buf, " %9.6f",
                    ib.seconds[static_cast<std::size_t>(c)]);
      out << buf;
    }
    out << '\n';
  }
  std::snprintf(buf, sizeof buf, "%5s %5s %10.6f", "total", "", report.total_s);
  out << buf;
  for (int c = 0; c < kBlameCount; ++c) {
    std::snprintf(buf, sizeof buf, " %9.6f",
                  report.totals[static_cast<std::size_t>(c)]);
    out << buf;
  }
  out << '\n';
  std::snprintf(buf, sizeof buf, "%5s %5s %10s", "share", "", "100.00%");
  out << buf;
  for (int c = 0; c < kBlameCount; ++c) {
    std::snprintf(buf, sizeof buf, " %8.2f%%",
                  100.0 * report.share(static_cast<Blame>(c)));
    out << buf;
  }
  out << '\n';
  std::snprintf(buf, sizeof buf,
                "network-wait share %.2f%%  chain stalls %lld  events %lld\n",
                100.0 * report.network_share(),
                static_cast<long long>(report.chain_stalls),
                static_cast<long long>(report.events_processed));
  out << buf;
  return out.str();
}

std::string format_what_ifs(const std::vector<WhatIf>& panel) {
  std::ostringstream out;
  char buf[160];
  out << "what-if re-timing (first-order lower bounds)\n";
  for (const WhatIf& w : panel) {
    std::snprintf(buf, sizeof buf,
                  "  %-20s mean iter %9.6f s  speedup %5.2fx\n",
                  w.name.c_str(), w.estimated_mean_iteration_s,
                  w.speedup_vs_measured);
    out << buf;
  }
  return out.str();
}

std::string format_blame_diff(const BlameDiff& diff) {
  std::ostringstream out;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "blame diff over %lld aligned iterations (b - a)\n",
                static_cast<long long>(diff.iterations_compared));
  out << buf;
  for (int c = 0; c < kBlameCount; ++c) {
    std::snprintf(buf, sizeof buf, "  %-10s %+10.6f s\n", kBlameNames[c],
                  diff.delta_seconds[static_cast<std::size_t>(c)]);
    out << buf;
  }
  std::snprintf(buf, sizeof buf, "  %-10s %+10.6f s\n", "total",
                diff.delta_total_s);
  out << buf;
  return out.str();
}

// -- CSV --------------------------------------------------------------------

void write_blame_csv(const BlameReport& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << "iteration,binding_worker,window_s";
  for (int c = 0; c < kBlameCount; ++c) out << ',' << kBlameNames[c] << "_s";
  out << '\n';
  char buf[64];
  for (const IterationBlame& ib : report.iterations) {
    out << ib.iteration << ',' << ib.binding_worker;
    std::snprintf(buf, sizeof buf, ",%.9f", ib.window());
    out << buf;
    for (int c = 0; c < kBlameCount; ++c) {
      std::snprintf(buf, sizeof buf, ",%.9f",
                    ib.seconds[static_cast<std::size_t>(c)]);
      out << buf;
    }
    out << '\n';
  }
}

BlameReport load_blame_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error(path + ": empty blame CSV");
  }
  std::string expect = "iteration,binding_worker,window_s";
  for (int c = 0; c < kBlameCount; ++c) {
    expect += ',';
    expect += kBlameNames[c];
    expect += "_s";
  }
  if (line != expect) {
    throw std::runtime_error(path + ": unexpected blame CSV header");
  }
  BlameReport report;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string cell;
    IterationBlame ib;
    const auto next = [&]() -> const std::string& {
      if (!std::getline(row, cell, ',')) {
        throw std::runtime_error(path + ": short blame CSV row");
      }
      return cell;
    };
    ib.iteration = std::atoll(next().c_str());
    ib.binding_worker = std::atoi(next().c_str());
    ib.window_start = 0.0;
    ib.window_end = std::atof(next().c_str());
    for (int c = 0; c < kBlameCount; ++c) {
      ib.seconds[static_cast<std::size_t>(c)] = std::atof(next().c_str());
    }
    report.iterations.push_back(ib);
  }
  for (const IterationBlame& ib : report.iterations) {
    for (int c = 0; c < kBlameCount; ++c) {
      report.totals[static_cast<std::size_t>(c)] +=
          ib.seconds[static_cast<std::size_t>(c)];
    }
    report.total_s += ib.window();
  }
  return report;
}

}  // namespace p3::obs
