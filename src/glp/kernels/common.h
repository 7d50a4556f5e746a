// Shared vocabulary for the LabelPropagation kernels: the device-side view
// of a variant's state, score candidates with the repository-wide tie-break,
// and the lockstep shared-memory hash-table insert used by both the
// warp-per-vertex and the high-degree (CMS+HT) kernels.

#pragma once

#include <cstdint>
#include <limits>

#include "glp/run.h"
#include "graph/csr.h"
#include "graph/types.h"
#include "sim/block.h"
#include "sim/lane.h"
#include "sim/shared_memory.h"
#include "sim/warp.h"
#include "util/hash.h"

namespace glp::lp {

/// Raw pointers a kernel needs from the variant — what cudaMemcpy'd state
/// would look like on a real device.
template <typename Variant>
struct DeviceView {
  const graph::EdgeId* offsets = nullptr;
  const graph::VertexId* neighbors = nullptr;
  /// Edge weights parallel to `neighbors` (nullptr for unweighted graphs).
  const float* edge_weights = nullptr;
  const graph::Label* labels = nullptr;
  graph::Label* next = nullptr;
  const float* aux = nullptr;  ///< per-label auxiliary array (LLP volumes)
  const Variant* variant = nullptr;

  static DeviceView Of(const graph::Graph& g, Variant& variant) {
    DeviceView view;
    view.offsets = g.offsets_data();
    view.neighbors = g.neighbors_data();
    view.edge_weights = g.weights_data();
    view.labels = variant.labels().data();
    view.next = variant.next_labels().data();
    if constexpr (Variant::kNeedsLabelAux) {
      view.aux = variant.label_aux().data();
    }
    view.variant = &variant;
    return view;
  }

  /// Evaluates LabelScore for (v, l, freq), gathering the aux value from
  /// device memory when the variant requires it (the gather is charged by
  /// the caller, which batches aux lookups warp-wide).
  double ScoreNoAux(graph::VertexId v, graph::Label l, double freq,
                    double aux_value) const {
    return variant->Score(v, l, freq, aux_value);
  }
};

/// A scored label candidate. Ordering: higher score wins; equal scores break
/// toward the smaller label — identical in every engine so results match
/// exactly.
struct Candidate {
  double score = -std::numeric_limits<double>::infinity();
  graph::Label label = graph::kInvalidLabel;

  bool BeatenBy(const Candidate& o) const {
    return o.score > score || (o.score == score && o.label < label);
  }

  void Merge(const Candidate& o) {
    if (BeatenBy(o)) *this = o;
  }
};

/// Warp-wide argmax of per-lane candidates over `group` lanes; charged as a
/// butterfly shuffle reduction (5 steps). Returns the winning candidate.
inline Candidate WarpArgMax(sim::Warp& w, sim::LaneMask group,
                            const sim::LaneArray<double>& scores,
                            const sim::LaneArray<graph::Label>& labels) {
  w.stats()->intrinsic_ops += 5;
  w.CountInstr(5);
  Candidate best;
  sim::ForEachLane(group, [&](int lane) {
    best.Merge(Candidate{scores[lane], labels[lane]});
  });
  return best;
}

/// Gathers aux[l] for the active lanes when the variant needs it; otherwise
/// free. Returns per-lane aux values (0 when unused).
template <typename Variant>
sim::LaneArray<double> GatherAux(sim::Warp& w, const DeviceView<Variant>& view,
                                 const sim::LaneArray<graph::Label>& labels) {
  sim::LaneArray<double> aux(0.0);
  if constexpr (Variant::kNeedsLabelAux) {
    sim::LaneArray<int64_t> idx;
    sim::ForEachLane(w.active(), [&](int lane) { idx[lane] = labels[lane]; });
    const sim::LaneArray<float> vals = w.Gather(view.aux, idx);
    sim::ForEachLane(w.active(),
                     [&](int lane) { aux[lane] = vals[lane]; });
  }
  return aux;
}

/// Multiplies the edge weights of a contiguous CSR range into the per-lane
/// weights (lane l covers edge base + l). Free for unweighted graphs; for
/// weighted graphs the (coalesced) weight gather is charged.
template <typename Variant>
inline void ApplyEdgeWeightsContig(sim::Warp& w,
                                   const DeviceView<Variant>& view,
                                   graph::EdgeId base,
                                   sim::LaneArray<float>* wgt) {
  if (view.edge_weights == nullptr) return;
  const sim::LaneArray<float> ew = w.GatherContig(view.edge_weights, base);
  sim::ForEachLane(w.active(), [&](int l) { (*wgt)[l] *= ew[l]; });
  w.CountInstr();
}

/// \brief Lockstep insert of per-lane (label, weight) pairs into a
/// shared-memory hash table (parallel CUDA-style open addressing:
/// atomicCAS-claim the key slot, atomicAdd the count).
///
/// `max_probes` bounds the probe sequence; lanes that exhaust it report
/// failure (the "unsuccessful insertion" that routes a label to the CMS in
/// Procedure SharedMemBigNodes). On success, post_count[lane] holds the
/// count *after* this lane's add.
///
/// Returns the mask of lanes whose insert succeeded. With `claimed`, the
/// bitmap of occupied slots (bit s of word s / 64), each slot a lane claims
/// is added to it.
inline sim::LaneMask SharedHtInsert(
    sim::Warp& w, sim::SharedSpan<graph::Label>& keys,
    sim::SharedSpan<float>& counts, int capacity, int max_probes,
    const sim::LaneArray<graph::Label>& labels,
    const sim::LaneArray<float>& weights, sim::LaneArray<float>* post_count,
    uint64_t* claimed = nullptr) {
  const sim::LaneMask entry = w.active();
  sim::LaneMask pending = entry;
  sim::LaneMask succeeded = 0;
  sim::LaneArray<int> slot;
  sim::ForEachLane(entry, [&](int lane) {
    slot[lane] = static_cast<int>(glp::HashToBucket(
        glp::HashMix64(labels[lane]), static_cast<uint32_t>(capacity)));
  });

  // Each probe is an atomicCAS(keys[slot], empty -> label) by the pending
  // lanes, then an atomicAdd(counts[slot], weight) by those that claimed
  // the slot or found their label there. Both apply in lane order; the CAS
  // touches only keys and the add only counts, so one fused lane loop has
  // exactly the effect of the two warp-wide atomics, which are charged as
  // such.
  for (int probe = 0; probe < max_probes && pending != 0; ++probe) {
    sim::LaneMask hit = 0;
    sim::ForEachLane(pending, [&](int lane) {
      graph::Label& key = keys.data[slot[lane]];
      if (key == graph::kInvalidLabel) {
        key = labels[lane];
        if (claimed != nullptr) {
          claimed[slot[lane] / 64] |= uint64_t{1} << (slot[lane] % 64);
        }
      }
      if (key == labels[lane]) {
        hit |= sim::LaneBit(lane);
        float& count = counts.data[slot[lane]];
        count += weights[lane];
        (*post_count)[lane] = count;
      } else {
        slot[lane] = slot[lane] + 1 == capacity ? 0 : slot[lane] + 1;
      }
    });
    w.SetActive(pending);
    w.ChargeSharedAtomic();
    if (hit != 0) {
      w.SetActive(hit);
      w.ChargeSharedAtomic();
      succeeded |= hit;
      pending &= ~hit;
    }
  }
  w.SetActive(entry);
  return succeeded;
}

/// Lockstep lookup: for each active lane, finds labels[lane] in the table.
/// found mask marks hits; count[lane] is the stored count for hits.
inline sim::LaneMask SharedHtLookup(sim::Warp& w,
                                    sim::SharedSpan<graph::Label>& keys,
                                    sim::SharedSpan<float>& counts,
                                    int capacity, int max_probes,
                                    const sim::LaneArray<graph::Label>& labels,
                                    sim::LaneArray<float>* count) {
  const sim::LaneMask entry = w.active();
  sim::LaneMask pending = entry;
  sim::LaneMask found = 0;
  sim::LaneArray<int> slot;
  sim::ForEachLane(entry, [&](int lane) {
    slot[lane] = static_cast<int>(glp::HashToBucket(
        glp::HashMix64(labels[lane]), static_cast<uint32_t>(capacity)));
  });

  for (int probe = 0; probe < max_probes && pending != 0; ++probe) {
    w.SetActive(pending);
    const sim::LaneArray<graph::Label> stored = w.SharedLoad(keys, slot);
    sim::LaneMask hit = 0;
    sim::LaneMask miss = 0;
    sim::ForEachLane(pending, [&](int lane) {
      if (stored[lane] == labels[lane]) {
        hit |= sim::LaneBit(lane);
      } else if (stored[lane] == graph::kInvalidLabel) {
        miss |= sim::LaneBit(lane);  // definitive miss
      } else {
        slot[lane] = slot[lane] + 1 == capacity ? 0 : slot[lane] + 1;
      }
    });
    if (hit != 0) {
      w.SetActive(hit);
      const sim::LaneArray<float> vals = w.SharedLoad(counts, slot);
      sim::ForEachLane(hit, [&](int lane) { (*count)[lane] = vals[lane]; });
      found |= hit;
    }
    pending &= ~(hit | miss);
  }
  w.SetActive(entry);
  return found;
}

/// \brief Lockstep insert into a *global-memory* hash table (atomicCAS key
/// claim + atomicAdd count through the memory partitions — the traffic
/// pattern the CMS+HT design exists to avoid).
///
/// `keys`/`counts` point at a zero-initialized table of `capacity` slots in
/// device global memory. post_count[lane] receives the count after this
/// lane's add. The probe sequence is unbounded (capacity slots), matching a
/// table sized at 2x the key population.
inline void GlobalHtInsert(sim::Warp& w, graph::Label* keys, float* counts,
                           int capacity,
                           const sim::LaneArray<graph::Label>& labels,
                           const sim::LaneArray<float>& weights,
                           sim::LaneArray<float>* post_count) {
  const sim::LaneMask entry = w.active();
  sim::LaneMask pending = entry;
  sim::LaneArray<int64_t> slot;
  sim::ForEachLane(entry, [&](int lane) {
    slot[lane] = static_cast<int64_t>(glp::HashToBucket(
        glp::HashMix64(labels[lane]), static_cast<uint32_t>(capacity)));
  });

  while (pending != 0) {
    w.SetActive(pending);
    sim::LaneArray<graph::Label> expected(graph::kInvalidLabel);
    const sim::LaneArray<graph::Label> observed =
        w.AtomicCasGlobal(keys, slot, expected, labels);
    sim::LaneMask hit = 0;
    sim::ForEachLane(pending, [&](int lane) {
      if (observed[lane] == graph::kInvalidLabel ||
          observed[lane] == labels[lane]) {
        hit |= sim::LaneBit(lane);
      } else {
        slot[lane] = slot[lane] + 1 == capacity ? 0 : slot[lane] + 1;
      }
    });
    if (hit != 0) {
      w.SetActive(hit);
      const sim::LaneArray<float> before =
          w.AtomicAddGlobal(counts, slot, weights);
      sim::ForEachLane(hit, [&](int lane) {
        (*post_count)[lane] = before[lane] + weights[lane];
      });
      pending &= ~hit;
    }
  }
  w.SetActive(entry);
}

}  // namespace glp::lp
