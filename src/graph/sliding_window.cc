#include "graph/sliding_window.h"

#include <algorithm>

#include "graph/builder.h"

namespace glp::graph {

SlidingWindow::SlidingWindow(std::vector<TimedEdge> edges)
    : edges_(std::move(edges)) {
  std::sort(edges_.begin(), edges_.end(), CanonicalEdgeLess);
  for (const TimedEdge& e : edges_) {
    max_entity_ = std::max({max_entity_, e.src, e.dst});
  }
}

void SlidingWindow::Append(std::vector<TimedEdge> batch) {
  if (batch.empty()) return;
  // Batches are not required to arrive internally sorted (producers
  // routinely interleave sources): detect disorder with a linear is_sorted
  // scan — free for the common in-order case — and sort only when needed,
  // so the tail inplace_merge below always sees a sorted batch.
  if (!std::is_sorted(batch.begin(), batch.end(), CanonicalEdgeLess)) {
    std::sort(batch.begin(), batch.end(), CanonicalEdgeLess);
  }
  for (const TimedEdge& e : batch) {
    max_entity_ = std::max({max_entity_, e.src, e.dst});
  }
  const size_t old_size = edges_.size();
  edges_.insert(edges_.end(), batch.begin(), batch.end());
  size_t insert_pos = old_size;
  if (old_size > 0 && CanonicalEdgeLess(edges_[old_size],
                                        edges_[old_size - 1])) {
    // Out-of-order arrival: merge the sorted batch into the sorted prefix,
    // touching only the suffix that actually overlaps the batch's range.
    const auto mid = edges_.begin() + static_cast<ptrdiff_t>(old_size);
    const auto first =
        std::lower_bound(edges_.begin(), mid, *mid, CanonicalEdgeLess);
    std::inplace_merge(first, mid, edges_.end(), CanonicalEdgeLess);
    insert_pos = static_cast<size_t>(first - edges_.begin());
  }
  ++generation_;
  append_log_.push_back({generation_, insert_pos});
  // Bounded history: evicting an entry makes queries that reach past it
  // conservative (MinInsertSince answers 0), never wrong.
  constexpr size_t kAppendLogCap = 64;
  if (append_log_.size() > kAppendLogCap) {
    log_covered_from_ = append_log_.front().gen;
    append_log_.erase(append_log_.begin());
  }
}

size_t SlidingWindow::MinInsertSince(uint64_t gen) const {
  if (gen < log_covered_from_) return 0;  // history evicted: assume the worst
  size_t min_pos = SIZE_MAX;
  for (const AppendRecord& rec : append_log_) {
    if (rec.gen > gen) min_pos = std::min(min_pos, rec.insert_pos);
  }
  return min_pos;
}

double SlidingWindow::min_time() const {
  return edges_.empty() ? 0.0 : edges_.front().time;
}

double SlidingWindow::max_time() const {
  return edges_.empty() ? 0.0 : edges_.back().time;
}

size_t SlidingWindow::LowerBound(double t) const {
  const auto it = std::lower_bound(
      edges_.begin(), edges_.end(), t,
      [](const TimedEdge& e, double v) { return e.time < v; });
  return static_cast<size_t>(it - edges_.begin());
}

WindowSnapshot SlidingWindow::Snapshot(double start_time,
                                       double end_time) const {
  Scratch scratch;
  return Snapshot(start_time, end_time, &scratch);
}

WindowSnapshot SlidingWindow::Snapshot(double start_time, double end_time,
                                       Scratch* scratch,
                                       bool collapse) const {
  return SnapshotRange(LowerBound(start_time), LowerBound(end_time), scratch,
                       collapse);
}

WindowSnapshot SlidingWindow::SnapshotRange(size_t begin_idx, size_t end_idx,
                                            Scratch* scratch,
                                            bool collapse) const {
  return SnapshotOfEdges(
      std::span<const TimedEdge>(edges_.data() + begin_idx,
                                 end_idx - begin_idx),
      static_cast<size_t>(max_entity_) + 1, scratch, collapse);
}

WindowSnapshot SnapshotOfEdges(std::span<const TimedEdge> edges,
                               size_t universe, SlidingWindow::Scratch* scratch,
                               bool collapse) {
  WindowSnapshot snap;
  // Dense epoch-stamped remap over the known entity universe — O(1) per
  // edge with O(1) reset between windows, much faster than hashing for the
  // production-sized streams of Table 4.
  if (scratch->epoch_of.size() < universe) {
    scratch->epoch_of.assign(universe, 0);
    scratch->local_of.resize(universe);
    scratch->epoch = 0;
  }
  if (++scratch->epoch == 0) {  // stamp wrap
    std::fill(scratch->epoch_of.begin(), scratch->epoch_of.end(), 0u);
    scratch->epoch = 1;
  }
  const uint32_t epoch = scratch->epoch;
  auto intern = [&](VertexId global) {
    if (scratch->epoch_of[global] != epoch) {
      scratch->epoch_of[global] = epoch;
      scratch->local_of[global] =
          static_cast<VertexId>(snap.local_to_global.size());
      snap.local_to_global.push_back(global);
    }
    return scratch->local_of[global];
  };

  std::vector<Edge> local;
  local.reserve(edges.size());
  for (const TimedEdge& e : edges) {
    local.push_back({intern(e.src), intern(e.dst)});
  }

  GraphBuilder builder(static_cast<VertexId>(snap.local_to_global.size()));
  builder.Reserve(local.size());
  for (const Edge& e : local) builder.AddEdgeUnchecked(e.src, e.dst);
  // Purchase multiplicity is exactly the repeated-interaction signal fraud
  // detection relies on (a collusive buyer hits the same item many times):
  // keep it either as parallel edges (multigraph) or, when collapsing, as
  // edge weights.
  snap.graph = collapse ? builder.BuildCollapsed(/*symmetrize=*/true)
                        : builder.Build(/*symmetrize=*/true, /*dedupe=*/false);
  return snap;
}

void WindowRangeCursor::AdvanceTo(double start_time, double end_time,
                                  WindowDelta* delta) {
  const std::vector<TimedEdge>& edges = window_->edges();
  const size_t n = edges.size();
  // A forward move can keep its cached indices — and report an exact delta —
  // iff every append since the last sync landed at or past the old upper
  // bound, leaving the array prefix those indices point into untouched.
  const bool forward = primed_ && start_time >= start_ && end_time >= end_;
  const size_t min_insert =
      (forward && window_->generation() != generation_)
          ? window_->MinInsertSince(generation_)
          : SIZE_MAX;
  const bool exact = forward && min_insert >= hi_;
  const size_t lo0 = lo_, hi0 = hi_;
  if (!exact) {
    // First use, backward move, or an append rewrote the prefix: re-sync.
    lo_ = window_->LowerBound(start_time);
    hi_ = window_->LowerBound(end_time);
  } else {
    // Forward advance: each bound only walks over edges entering/leaving.
    while (lo_ < n && edges[lo_].time < start_time) ++lo_;
    while (hi_ < n && edges[hi_].time < end_time) ++hi_;
  }
  if (delta != nullptr) {
    *delta = WindowDelta{};
    delta->exact = exact;
    if (exact) {
      // Prefix [0, hi0) is untouched, so old-window positions are valid in
      // the new array. Edges at [hi0, hi_) are new to the window whether
      // they are appended arrivals or pre-existing tail edges the window
      // just advanced over; appends that expired in the same advance
      // (position in [hi0, lo_)) correctly appear in neither range.
      delta->expired_begin = lo0;
      delta->expired_end = std::min(lo_, hi0);
      delta->retained_begin = std::min(lo_, hi0);
      delta->retained_end = hi0;
      delta->appended_begin = std::max(hi0, lo_);
      delta->appended_end = hi_;
    }
  }
  primed_ = true;
  generation_ = window_->generation();
  start_ = start_time;
  end_ = end_time;
}

void WindowRangeCursor::PrimeAt(double start_time, double end_time) {
  lo_ = window_->LowerBound(start_time);
  hi_ = window_->LowerBound(end_time);
  primed_ = true;
  generation_ = window_->generation();
  start_ = start_time;
  end_ = end_time;
}

const WindowSnapshot& SlidingWindowCursor::AdvanceTo(double end_time) {
  return AdvanceTo(end_time, nullptr);
}

const WindowSnapshot& SlidingWindowCursor::AdvanceTo(double end_time,
                                                     WindowDelta* delta) {
  range_.AdvanceTo(end_time - length_, end_time, delta);
  snapshot_ = window_->SnapshotRange(range_.lo(), range_.hi(), &scratch_,
                                     collapse_);
  return snapshot_;
}

void SlidingWindowCursor::PrimeAt(double end_time) {
  range_.PrimeAt(end_time - length_, end_time);
}

}  // namespace glp::graph
