#include "trace/timeline.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/csv.h"

namespace p3::trace {

void Timeline::add(std::string lane, TimeS start, TimeS end,
                   std::string label) {
  if (end < start) throw std::invalid_argument("span ends before it starts");
  tracer_.span(lane, start, end, label);
}

std::vector<Span> Timeline::spans() const {
  std::vector<Span> out;
  for (const auto& e : tracer_.events()) {
    if (e.kind != obs::EventKind::kSpan) continue;
    out.push_back(Span{tracer_.track_name(e.track), e.t0, e.t1(),
                       tracer_.label_text(e.label)});
  }
  return out;
}

bool Timeline::empty() const { return span_tracks().empty(); }

std::vector<std::uint32_t> Timeline::span_tracks() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t t = 0; t < tracer_.tracks().size(); ++t) {
    if (!tracer_.spans_on(t).ids.empty()) out.push_back(t);
  }
  // First-seen order: by the id of each track's first span.
  std::sort(out.begin(), out.end(), [this](std::uint32_t a, std::uint32_t b) {
    return tracer_.spans_on(a).ids.front() < tracer_.spans_on(b).ids.front();
  });
  return out;
}

const std::vector<std::uint32_t>& Timeline::by_start(
    std::uint32_t track, std::vector<std::uint32_t>& sorted) const {
  const obs::IdList<TimeS>& list = tracer_.spans_on(track);
  if (list.in_order) return list.ids;
  sorted = tracer_.by_start(list);
  return sorted;
}

std::vector<Span> Timeline::lane_spans(const std::string& lane) const {
  std::vector<Span> out;
  const auto& tracks = tracer_.tracks();
  for (std::uint32_t t = 0; t < tracks.size(); ++t) {
    if (tracks[t].name != lane) continue;
    std::vector<std::uint32_t> sorted;
    for (const std::uint32_t id : by_start(t, sorted)) {
      const obs::Event& e = tracer_.events()[id];
      out.push_back(Span{lane, e.t0, e.t1(), tracer_.label_text(e.label)});
    }
  }
  return out;
}

std::vector<std::string> Timeline::lanes() const {
  std::vector<std::string> out;
  for (const std::uint32_t t : span_tracks()) {
    out.push_back(tracer_.track_name(t));
  }
  return out;
}

TimeS Timeline::end_time() const {
  TimeS t = 0.0;
  for (const auto& e : tracer_.events()) {
    if (e.kind == obs::EventKind::kSpan) t = std::max(t, e.t1());
  }
  return t;
}

std::string Timeline::to_ascii(TimeS unit, TimeS t0, TimeS t1) const {
  if (unit <= 0.0) throw std::invalid_argument("non-positive time unit");
  const auto cols = static_cast<std::size_t>(std::ceil((t1 - t0) / unit));
  const std::vector<std::uint32_t> tracks = span_tracks();

  std::size_t name_width = 0;
  for (const std::uint32_t t : tracks) {
    name_width = std::max(name_width, tracer_.track_name(t).size());
  }

  std::ostringstream out;
  std::vector<std::uint32_t> sorted;
  for (const std::uint32_t t : tracks) {
    std::string row(cols, '.');
    for (const std::uint32_t id : by_start(t, sorted)) {
      const obs::Event& s = tracer_.events()[id];
      if (s.t1() <= t0 || s.t0 >= t1) continue;
      const std::string& label = tracer_.label_text(s.label);
      const char glyph = label.empty() ? '#' : label[0];
      // Half-open cell coverage; a zero-length span still marks one cell.
      auto c0 = static_cast<std::size_t>(std::floor((std::max(s.t0, t0) - t0) / unit + 1e-9));
      auto c1 = static_cast<std::size_t>(std::ceil((std::min(s.t1(), t1) - t0) / unit - 1e-9));
      c1 = std::max(c1, c0 + 1);
      for (std::size_t c = c0; c < std::min(c1, cols); ++c) row[c] = glyph;
    }
    const std::string& lane = tracer_.track_name(t);
    out << lane << std::string(name_width - lane.size(), ' ') << " |" << row
        << "|\n";
  }
  return out.str();
}

void Timeline::write_csv(const std::string& path) const {
  CsvWriter csv(path, {"lane", "start", "end", "label"});
  for (const auto& s : spans()) {
    char start[40], end[40];
    std::snprintf(start, sizeof(start), "%.9f", s.start);
    std::snprintf(end, sizeof(end), "%.9f", s.end);
    csv.row({s.lane, start, end, s.label});
  }
}

}  // namespace p3::trace
