// The GLP engine — the paper's contribution (§3-§4): degree-binned kernel
// dispatch over the SIMT device, with three optimization levels matching
// Table 3's rows, CPU-GPU hybrid (out-of-core) execution, and multi-GPU
// scaling (§5.4).
//
// Per iteration:
//   PickLabel        host hook (+ charged device pick kernel when the
//                    variant has per-vertex state, e.g. SLP)
//   LabelPropagation low bin  -> warp-centric multi-vertex kernel (§4.2)
//                    mid bin  -> warp-per-vertex shared-HT kernel
//                    high bin -> block-per-vertex CMS+HT kernel (§4.1)
//                    (mode kGlobal/kSmem fall back per Table 3)
//   UpdateVertex     host hook + charged commit/auxiliary kernels
//
// Timing: every launch is priced by the roofline cost model; multi-GPU
// divides kernel time across devices and adds a partially-overlapped label
// all-gather; hybrid mode adds the non-overlappable part of streaming the
// CSR over PCIe each iteration.
//
// Host replay (DESIGN.md §4.1): in the shared-memory modes, a
// LabelPropagation warp (low and mid kernels) or block (high kernel) whose
// neighbors speak the same labels as two iterations ago is not
// re-simulated; its stats and choices from then are reused. The device is
// still charged for every block.

#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "glp/kernels/accounting.h"
#include "glp/kernels/common.h"
#include "glp/kernels/global_ht.h"
#include "glp/kernels/high_degree.h"
#include "glp/kernels/low_degree.h"
#include "glp/kernels/warp_per_vertex.h"
#include "glp/run.h"
#include "graph/binning.h"
#include "sim/cost_model.h"
#include "sim/transfer.h"
#include "util/bits.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace glp::lp {

/// Flags in `touched` every vertex whose CSR row (the in-neighbors it
/// gathers labels from) holds a vertex labeled differently in `now` than in
/// `before` — the vertices whose LabelPropagation inputs changed. Returns
/// the summed degree of the changed vertices.
inline uint64_t MarkTouched(const graph::Graph& g,
                            const std::vector<graph::Label>& now,
                            const std::vector<graph::Label>& before,
                            std::vector<uint8_t>* touched) {
  const graph::VertexId n = g.num_vertices();
  std::vector<uint8_t> changed(n, 0);
  uint64_t changed_edges = 0;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (now[v] == before[v]) continue;
    changed[v] = 1;
    changed_edges += static_cast<uint64_t>(g.degree(v));
  }
  touched->assign(n, 0);
  if (changed_edges == 0) return 0;
  for (graph::VertexId v = 0; v < n; ++v) {
    for (graph::VertexId u : g.neighbors(v)) {
      if (changed[u] != 0) {
        (*touched)[v] = 1;
        break;
      }
    }
  }
  return changed_edges;
}

/// Flags the entries of `memo` for one launch. Entry e — a warp of a
/// per-warp memo, else a block — computes the `per_entry` consecutive
/// vertices of `ids` from e * per_entry (kInvalidVertex entries being
/// padding); it is dirty when one of its vertices is touched, or always
/// when `touched` is null. The memo is sized to the grid: entries past the
/// end of `ids` (a last block's idle warps) compute nothing and stay clean.
/// Returns the clean entries that compute vertices.
inline uint64_t FlagDirtyEntries(std::span<const graph::VertexId> ids,
                                 size_t per_entry, size_t warps_per_block,
                                 const uint8_t* touched, sim::BlockMemo* memo) {
  const size_t used = (ids.size() + per_entry - 1) / per_entry;
  const size_t per_block = memo->per_warp ? warps_per_block : 1;
  memo->dirty.assign((used + per_block - 1) / per_block * per_block, 0);
  if (touched == nullptr) {
    std::fill_n(memo->dirty.begin(), used, 1);
    return 0;
  }
  uint64_t clean = 0;
  for (size_t e = 0; e < used; ++e) {
    const size_t end = std::min(ids.size(), (e + 1) * per_entry);
    for (size_t i = e * per_entry; i < end; ++i) {
      if (ids[i] != graph::kInvalidVertex && touched[ids[i]] != 0) {
        memo->dirty[e] = 1;
        break;
      }
    }
    clean += memo->dirty[e] == 0;
  }
  return clean;
}

/// GLP over any variant policy.
template <typename Variant>
class GlpEngine : public Engine {
 public:
  GlpEngine(const VariantParams& params = {}, const GlpOptions& options = {},
            glp::ThreadPool* pool = nullptr,
            sim::DeviceProps device = sim::DeviceProps::TitanV())
      : params_(params),
        options_(options),
        pool_(pool != nullptr ? pool : glp::ThreadPool::Default()),
        device_(device),
        cost_(device) {}

  std::string name() const override {
    std::string base;
    switch (options_.mode) {
      case GlpOptions::Mode::kGlobal:
        base = "GLP-global";
        break;
      case GlpOptions::Mode::kSmem:
        base = "GLP-smem";
        break;
      case GlpOptions::Mode::kSmemWarp:
        base = "GLP";
        break;
    }
    if (options_.use_frontier) base += "+frontier";
    return base;
  }

  /// Per-iteration affected-vertex counts of the last frontier-mode run.
  const std::vector<uint64_t>& last_affected_counts() const {
    return affected_counts_;
  }

  /// Vertices that took the Theorem-1 fallback path in the last run.
  uint64_t last_fallback_count() const { return fallback_count_; }
  /// LabelPropagation warps and blocks the host replayed instead of
  /// simulating in the last run (RunResult::host_blocks_replayed).
  uint64_t last_replayed_blocks() const { return replayed_blocks_; }
  /// Low-bin packing efficiency of the last run.
  double last_plan_occupancy() const { return plan_occupancy_; }

  using Engine::Run;
  Result<RunResult> Run(const graph::Graph& g, const RunConfig& config,
                        const RunContext& ctx) override {
    if (!config.initial_labels.empty() &&
        config.initial_labels.size() != g.num_vertices()) {
      return Status::InvalidArgument("initial_labels size mismatch");
    }
    // The warp-mapped kernels give each warp of a block its own vertex or
    // round: a partial warp would redo the next block's first one.
    if (options_.threads_per_block <= 0 ||
        options_.threads_per_block % sim::kWarpSize != 0 ||
        options_.threads_per_block > device_.max_threads_per_block) {
      return Status::InvalidArgument(
          "threads_per_block must be a positive multiple of 32 and at most " +
          std::to_string(device_.max_threads_per_block));
    }
    glp::Timer timer;
    glp::ThreadPool* const pool = ctx.pool != nullptr ? ctx.pool : pool_;
    Variant variant(params_);
    variant.Init(g, config);

    const graph::VertexId n = g.num_vertices();
    const uint64_t nu = n;

    // --- Setup: degree bins and mode-specific structures ---
    graph::BinningConfig bin_cfg;
    bin_cfg.low_degree_max = options_.low_degree_max;
    bin_cfg.high_degree_min = options_.high_degree_min;
    const graph::DegreeBins bins = graph::ComputeDegreeBins(g, bin_cfg);

    // The warp-centric low-degree kernel derives frequencies from popcounts,
    // which requires unit neighbor weights; non-unit variants and weighted
    // graphs route their low bin to the warp-per-vertex kernel instead.
    const bool use_warp_pack = options_.mode == GlpOptions::Mode::kSmemWarp &&
                               Variant::kUnitWeight && !g.has_weights();
    const bool use_smem = options_.mode != GlpOptions::Mode::kGlobal;

    const int num_gpus = std::max(1, options_.num_gpus);

    // Vertex-partition the bins across GPUs round-robin (the bins are
    // degree-sorted, so striding balances per-GPU edge counts), and build
    // each GPU's mode-specific structures over its own partition.
    struct GpuPartition {
      graph::DegreeBins bins;
      std::vector<graph::VertexId> all_vertices;  // mode kGlobal
      GlobalHtArena arena;                        // mode kGlobal
      LowDegreePlan plan;                         // mode kSmemWarp
      int low_ht_capacity = 64;
      int mid_ht_capacity = 64;
      uint64_t vertices = 0;
    };
    std::vector<GpuPartition> parts(num_gpus);
    auto split = [&](const std::vector<graph::VertexId>& src,
                     std::vector<graph::VertexId> graph::DegreeBins::*bin) {
      for (size_t i = 0; i < src.size(); ++i) {
        (parts[i % num_gpus].bins.*bin).push_back(src[i]);
      }
    };
    split(bins.low, &graph::DegreeBins::low);
    split(bins.mid, &graph::DegreeBins::mid);
    split(bins.high, &graph::DegreeBins::high);

    uint64_t device_bytes = g.bytes() + 2 * nu * sizeof(graph::Label);
    if constexpr (Variant::kNeedsLabelAux) device_bytes += nu * sizeof(float);
    device_bytes += nu * variant.memory_bytes_per_vertex();
    device_bytes += nu * sizeof(graph::VertexId);  // bin lists

    double occupancy_sum = 0;
    for (GpuPartition& part : parts) {
      part.vertices = part.bins.total();
      if (!use_smem) {
        // Mode "global": one big per-vertex hash-table arena, all bins.
        part.all_vertices.reserve(part.bins.total());
        for (const auto* b : {&part.bins.low, &part.bins.mid,
                              &part.bins.high}) {
          part.all_vertices.insert(part.all_vertices.end(), b->begin(),
                                   b->end());
        }
        part.arena.Build(g, part.all_vertices);
        device_bytes += part.arena.bytes();
      } else {
        int64_t low_max = 1, mid_max = 1;
        for (graph::VertexId v : part.bins.low) {
          low_max = std::max(low_max, g.degree(v));
        }
        for (graph::VertexId v : part.bins.mid) {
          mid_max = std::max(mid_max, g.degree(v));
        }
        part.low_ht_capacity = NextPow2(2 * low_max);
        part.mid_ht_capacity = NextPow2(2 * mid_max);
        if (use_warp_pack) {
          part.plan = BuildLowDegreePlan(g, part.bins.low);
          occupancy_sum += part.plan.occupancy;
          device_bytes += part.plan.device_bytes();
        }
      }
    }
    if (use_warp_pack) plan_occupancy_ = occupancy_sum / num_gpus;
    // Aggregate device memory grows with the GPU count; keep a 10% reserve
    // for kernel working buffers.
    const uint64_t effective_capacity =
        static_cast<uint64_t>(device_.mem_capacity_bytes) * num_gpus;
    const bool hybrid =
        options_.force_hybrid || device_bytes > effective_capacity;
    const double resident_fraction =
        std::min(1.0, 0.9 * static_cast<double>(effective_capacity) /
                          static_cast<double>(device_bytes));

    // Frontier mode needs per-vertex change tracking; it composes with the
    // shared-memory modes only (the kGlobal arena is positionally indexed)
    // and is pointless-but-correct to skip for aux-dependent variants.
    const bool frontier_active =
        options_.use_frontier && use_smem && !Variant::kNeedsLabelAux;
    // Host block replay has the same scope, outside frontier mode. A block's
    // stats and writes are a pure function of the graph and the spoken
    // labels it gathers (aux-dependent variants also read per-label state),
    // so a block whose inputs equal iteration t-2's repeats t-2 exactly.
    // Against t-1 nothing repeats: synchronous LP oscillates with period 2.
    const bool replay_active =
        use_smem && !options_.use_frontier && !Variant::kNeedsLabelAux;
    // Both compare against the iteration `lookback` back: they keep the
    // spoken labels and the kernels' choices of the last two iterations.
    const int lookback = frontier_active ? 1 : 2;
    LabelHistory spoken_history, chosen_history;
    std::vector<uint8_t> affected;
    affected_counts_.clear();
    // Memos of each LabelPropagation launch, indexed by iteration parity
    // and GPU: per warp for the warp-mapped low and mid kernels, per block
    // for the high-degree kernel, whose per-block fallback flags live
    // beside its memo (replayed blocks keep theirs).
    struct KernelMemos {
      KernelMemos() { low.per_warp = mid.per_warp = true; }
      sim::BlockMemo low, mid, high;
      std::vector<uint8_t> high_fell_back;
    };
    std::vector<KernelMemos> memos[2] = {std::vector<KernelMemos>(num_gpus),
                                         std::vector<KernelMemos>(num_gpus)};
    const size_t warps_per_block =
        static_cast<size_t>(options_.threads_per_block / sim::kWarpSize);
    uint64_t items_executed = 0, items_replayed = 0;

    // --- Iterations ---
    prof::PhaseProfiler* const profiler = ctx.profiler;
    if (profiler != nullptr) profiler->BeginRun(name(), num_gpus);
    ConvergenceRecorder recorder(ctx.metrics, name());
    GpuRunAccumulator acc(&cost_, profiler);
    sim::TransferLedger transfers(&cost_);
    uint64_t fallbacks = 0;
    RunResult result;
    // Initial upload of graph + state (charged once, outside the
    // per-iteration times the paper reports).
    transfers.HostToDevice(device_bytes);
    const double initial_transfer = transfers.seconds();

    StabilityTracker stability;
    const bool track_cycles =
        config.stop_when_stable && !variant.needs_pick_kernel();
    if (track_cycles) stability.Reset(variant.labels());

    for (int iter = 0; iter < config.max_iterations; ++iter) {
      if (ctx.StopRequested()) return Status::Cancelled("GLP run cancelled");
      if (profiler != nullptr) profiler->BeginIteration(iter);
      variant.BeginIteration(iter);
      const DeviceView<Variant> view = DeviceView<Variant>::Of(g, variant);

      // Vertices whose spoken label changed since the iteration `lookback`
      // back are the change sources; their readers must recompute, everyone
      // else repeats the label chosen then. Frontier mode drops the others
      // from the device pass; block replay only skips simulating them.
      const bool reuse =
          (frontier_active || replay_active) && iter >= lookback;
      const bool full_pass = !frontier_active || !reuse;
      uint64_t affected_count = nu;
      uint64_t changed_edges = 0;
      if (reuse) {
        changed_edges = MarkTouched(g, variant.labels(),
                                    spoken_history.Back(lookback), &affected);
        if (frontier_active) {
          affected_count = 0;
          for (uint8_t a : affected) affected_count += a;
        }
        const std::vector<graph::Label>& chosen =
            chosen_history.Back(lookback);
        std::copy(chosen.begin(), chosen.end(), variant.next_labels().begin());
      }
      if (frontier_active || replay_active) {
        spoken_history.Push(variant.labels());
      }
      affected_counts_.push_back(affected_count);

      // Each GPU runs the full per-iteration schedule over its own vertex
      // partition; devices run concurrently, so the iteration's kernel time
      // is the max over GPUs.
      double max_gpu_seconds = 0;
      for (int gpu = 0; gpu < num_gpus; ++gpu) {
        GpuPartition& part = parts[gpu];
        double gpu_seconds = 0;
        const uint64_t pv = part.vertices;

        // PickLabel kernel (per-vertex-state variants only).
        if (variant.needs_pick_kernel()) {
          gpu_seconds += acc.AddLaunchConcurrent(
              MapKernelStats(pv, pv * variant.memory_bytes_per_vertex(),
                             pv * 4),
              prof::Phase::kPick, gpu);
        }

        // Frontier filtering of this partition's bins (device cost: compare
        // + compact over the partition's labels, neighbor-list marking over
        // the changed vertices, and the carried-label copy).
        const graph::DegreeBins* bins_now = &part.bins;
        const LowDegreePlan* plan_now = &part.plan;
        graph::DegreeBins filtered;
        LowDegreePlan filtered_plan;
        if (!full_pass) {
          auto filter = [&](const std::vector<graph::VertexId>& src,
                            std::vector<graph::VertexId>* dst) {
            for (graph::VertexId v : src) {
              if (affected[v]) dst->push_back(v);
            }
          };
          filter(part.bins.low, &filtered.low);
          filter(part.bins.mid, &filtered.mid);
          filter(part.bins.high, &filtered.high);
          bins_now = &filtered;
          // Frontier bookkeeping kernels (concurrent with other GPUs).
          // Per-GPU shares round up so a small frontier is never priced at
          // zero (truncating division charged nothing whenever
          // changed_edges < num_gpus).
          const uint64_t gpus_u = static_cast<uint64_t>(num_gpus);
          const uint64_t edge_share = (changed_edges + gpus_u - 1) / gpus_u;
          const uint64_t affected_share =
              (affected_count + gpus_u - 1) / gpus_u;
          sim::KernelStats frontier_stats;
          frontier_stats += MapKernelStats(pv, 8 * pv, 4);  // diff + compact
          frontier_stats +=
              MapKernelStats(edge_share, edge_share * 4, affected_share);
          frontier_stats += MapKernelStats(pv, pv * 4, pv * 4);  // carry copy
          if (use_warp_pack) {
            filtered_plan = BuildLowDegreePlan(g, filtered.low);
            plan_now = &filtered_plan;
            // Device-side plan rebuild: scan + prefix-sum + slot fill.
            uint64_t flow_edges = 0;
            for (graph::VertexId v : filtered.low) {
              flow_edges += static_cast<uint64_t>(g.degree(v));
            }
            frontier_stats += MapKernelStats(flow_edges, flow_edges * 8,
                                             flow_edges * 4);
          }
          frontier_stats.kernel_launches = 1;
          gpu_seconds += acc.AddLaunchConcurrent(frontier_stats,
                                                 prof::Phase::kFrontier, gpu);
        }

        // LabelPropagation kernels by mode. The per-bin kernels are
        // independent and launch on concurrent streams, so the whole phase
        // pays one launch overhead and fills the device together. When
        // profiling, each bin's stats are kept apart so the fused priced
        // time can be attributed per bin (pricing itself is unchanged).
        sim::KernelStats phase;
        std::vector<BinPart> bin_parts;
        auto add_part = [&](prof::Phase p, const sim::KernelStats& s) {
          phase += s;
          if (profiler != nullptr) bin_parts.push_back({p, s});
        };
        // A launch's memo with its warps or blocks flagged for this
        // iteration: every entry runs until the memo holds iteration t-2,
        // then only those reading a touched vertex. `ids` maps entries to
        // vertices, `per_entry` each. Null (run everything) without
        // replay. Counts the launch's host work items either way.
        KernelMemos& memo = memos[iter % 2][gpu];
        auto flag = [&](sim::BlockMemo* m,
                        std::span<const graph::VertexId> ids,
                        size_t per_entry) -> sim::BlockMemo* {
          const uint64_t items = (ids.size() + per_entry - 1) / per_entry;
          if (!replay_active) {
            items_executed += items;
            return nullptr;
          }
          const uint64_t clean =
              FlagDirtyEntries(ids, per_entry, warps_per_block,
                               reuse ? affected.data() : nullptr, m);
          items_executed += items - clean;
          items_replayed += clean;
          return m;
        };
        if (!use_smem) {
          part.arena.Reset();
          add_part(prof::Phase::kCompute,
                   MapKernelStats(0, 0, part.arena.bytes()));  // memset
          add_part(prof::Phase::kCompute,
                   RunGlobalHtKernel(device_, pool, view, part.all_vertices,
                                     &part.arena,
                                     options_.threads_per_block));
          items_executed += part.all_vertices.size();
        } else {
          if (use_warp_pack) {
            add_part(prof::Phase::kLowBin,
                     RunLowDegreeWarpKernel(
                         device_, pool, view, *plan_now,
                         options_.threads_per_block,
                         flag(&memo.low, plan_now->slot_vertex,
                              sim::kWarpSize)));
            // Isolated low-bin vertices: trivial map kernel on its stream
            // that re-commits the current label — an isolated vertex has no
            // neighbors and must keep its label across iterations.
            if (!plan_now->isolated.empty()) {
              for (graph::VertexId v : plan_now->isolated) {
                variant.next_labels()[v] = variant.labels()[v];
              }
              add_part(prof::Phase::kLowBin,
                       MapKernelStats(plan_now->isolated.size(),
                                      plan_now->isolated.size() * 4,
                                      plan_now->isolated.size() * 4));
            }
          } else if (!bins_now->low.empty()) {
            add_part(prof::Phase::kLowBin,
                     RunWarpPerVertexSmemKernel(
                         device_, pool, view, bins_now->low,
                         part.low_ht_capacity, options_.threads_per_block,
                         flag(&memo.low, bins_now->low, 1)));
          }
          if (!bins_now->mid.empty()) {
            add_part(prof::Phase::kMidBin,
                     RunWarpPerVertexSmemKernel(
                         device_, pool, view, bins_now->mid,
                         part.mid_ht_capacity, options_.threads_per_block,
                         flag(&memo.mid, bins_now->mid, 1)));
          }
          if (!bins_now->high.empty()) {
            std::vector<uint8_t>& fell_back = memo.high_fell_back;
            fell_back.resize(bins_now->high.size());
            add_part(prof::Phase::kHighBin,
                     RunHighDegreeBlockKernel(
                         device_, pool, view, bins_now->high, options_,
                         fell_back.data(),
                         flag(&memo.high, bins_now->high, 1)));
            for (uint8_t f : fell_back) fallbacks += f;
          }
        }
        phase.kernel_launches = 1;
        const double phase_seconds = acc.AddLaunchConcurrent(phase);
        gpu_seconds += phase_seconds;
        if (profiler != nullptr) {
          AttributeFusedPhase(profiler, gpu, bin_parts, phase, phase_seconds);
        }

        // UpdateVertex / commit kernels over the partition.
        gpu_seconds += acc.AddLaunchConcurrent(
            MapKernelStats(pv, 8 * pv, 4),  // changed-count + swap
            prof::Phase::kCommit, gpu);
        if (variant.needs_pick_kernel()) {
          const uint64_t mem = pv * variant.memory_bytes_per_vertex();
          gpu_seconds += acc.AddLaunchConcurrent(
              MapKernelStats(pv, pv * 4 + mem, mem),  // memory merge
              prof::Phase::kCommit, gpu);
        }
        if constexpr (Variant::kNeedsLabelAux) {
          // Volumes rebuilt over the full label array (replicated per GPU).
          gpu_seconds += acc.AddLaunchConcurrent(MapKernelStats(0, 0, nu * 4),
                                                 prof::Phase::kCommit, gpu);
          gpu_seconds += acc.AddLaunchConcurrent(HistogramKernelStats(nu),
                                                 prof::Phase::kCommit, gpu);
        }
        max_gpu_seconds = std::max(max_gpu_seconds, gpu_seconds);
      }
      acc.AddSeconds(max_gpu_seconds);

      if (frontier_active || replay_active) {
        chosen_history.Push(variant.next_labels());
      }
      const int changed = variant.EndIteration(iter);

      // --- Price the iteration ---
      double iter_s = acc.TakeSeconds();
      if (num_gpus > 1) {
        // Label all-gather over NVLink, 80% overlapped with compute.
        const double t_p2p =
            cost_.PeerTransferCost(nu * sizeof(graph::Label));
        const double charged = 0.2 * t_p2p + device_.pcie_latency_s;
        transfers.PeerToPeer(nu * sizeof(graph::Label));
        iter_s += charged;
        if (profiler != nullptr) {
          profiler->AddSeconds(prof::Phase::kAllGather, charged);
        }
      }
      if (hybrid) {
        // CPU-GPU heterogeneous mode (§3.1/§5.4): the GPU keeps a
        // capacity-sized partition resident and processes it; the host CPUs
        // process the overflow partition in place (nothing is re-streamed
        // per iteration), and the two sides exchange the label array, which
        // pipelines with compute. Only the non-overlappable label-sync
        // residue is exposed — this is what keeps the paper's transfer
        // overhead under 10%.
        const double t_gpu = iter_s * resident_fraction;
        const double cpu_edges =
            (1.0 - resident_fraction) * static_cast<double>(g.num_edges());
        const double t_cpu = cpu_edges * options_.host_bytes_per_edge /
                             (options_.host_mem_bandwidth_gbps * 1e9);
        const double t_compute = std::max(t_gpu, t_cpu);
        const double t_sync = cost_.TransferCost(nu * sizeof(graph::Label));
        // Label sync streams in chunks as partitions finish; ~75% of it
        // hides under compute.
        const double exposed =
            std::max(device_.pcie_latency_s, t_sync - 0.75 * t_compute);
        transfers.OverlappedHostToDevice(nu * sizeof(graph::Label));
        result.transfer_seconds += exposed;
        iter_s = t_compute + exposed;
        if (profiler != nullptr) {
          profiler->AddSeconds(prof::Phase::kHybridSync, exposed);
        }
      }

      if (profiler != nullptr) profiler->EndIteration(iter_s);
      recorder.RecordIteration(static_cast<uint64_t>(changed), affected_count,
                               iter_s);
      result.iteration_seconds.push_back(iter_s);
      ++result.iterations;
      if (config.stop_when_stable &&
          (changed == 0 ||
           (track_cycles && stability.Cycled(variant.labels())))) {
        break;
      }
    }

    fallback_count_ = fallbacks;
    replayed_blocks_ = items_replayed;
    result.host_blocks_executed = items_executed;
    result.host_blocks_replayed = items_replayed;
    result.labels = variant.FinalLabels();
    result.wall_seconds = timer.Seconds();
    result.stats = acc.total();
    result.setup_seconds = initial_transfer;
    double total = 0;
    for (double s : result.iteration_seconds) total += s;
    result.simulated_seconds = total;
    result.device_bytes = device_bytes;
    if (profiler != nullptr) result.phase_breakdown = profiler->breakdown();
    return result;
  }

 private:
  /// One bin kernel's contribution to the fused LabelPropagation phase.
  struct BinPart {
    prof::Phase p;
    sim::KernelStats s;
  };

  /// Splits the fused (single-launch) LabelPropagation phase's priced time
  /// across its per-bin contributions, proportional to each bin's standalone
  /// roofline cost — per-bin attribution without changing what is priced.
  void AttributeFusedPhase(prof::PhaseProfiler* profiler, int gpu,
                           const std::vector<BinPart>& bin_parts,
                           const sim::KernelStats& fused,
                           double fused_seconds) const {
    if (bin_parts.empty()) {
      profiler->AddKernel(prof::Phase::kCompute, gpu, fused, fused_seconds);
      return;
    }
    double weight_sum = 0;
    std::vector<double> weights;
    weights.reserve(bin_parts.size());
    for (const BinPart& part : bin_parts) {
      const double w = cost_.KernelCost(part.s).total_s;
      weights.push_back(w);
      weight_sum += w;
    }
    for (size_t i = 0; i < bin_parts.size(); ++i) {
      const double share =
          weight_sum > 0
              ? fused_seconds * weights[i] / weight_sum
              : fused_seconds / static_cast<double>(bin_parts.size());
      profiler->AddKernel(bin_parts[i].p, gpu, bin_parts[i].s, share);
    }
  }

  VariantParams params_;
  GlpOptions options_;
  glp::ThreadPool* pool_;
  sim::DeviceProps device_;
  sim::CostModel cost_;
  uint64_t fallback_count_ = 0;
  uint64_t replayed_blocks_ = 0;
  double plan_occupancy_ = 1.0;
  std::vector<uint64_t> affected_counts_;
};

}  // namespace glp::lp
