// RLB: the right-looking blocked method (§II.B) and its two GPU variants
// (§III).
//
// Per supernode J with blocks B_1 < ... < B_m (maximal consecutive row
// runs split at target supernode boundaries): after the panel
// factorization, for every i the diagonal target L(B_i,B_i) receives one
// DSYRK and every pair k > i one DGEMM into L(B_k,B_i) — written DIRECTLY
// into ancestor factor storage on the CPU (no update matrix), one relative
// index per block.
//
// GPU v1 (kBatched): the per-block products accumulate in a device-side
// update matrix and come back in ONE transfer — same memory footprint as
// RL (paper: "of no practical value compared to RL", kept for the §IV.B
// v1-vs-v2 bandwidth/latency experiment).
// GPU v2 (kStreamed): every product is transferred and assembled as soon
// as it completes; device scratch is a single block pair — the low-memory
// variant that survives nlpkkt120.
//
// Parallel path (ctx.scheduled): a thin EXECUTOR over the shared
// ExecutionPlan (symbolic/exec_plan.*), built in split-scatter mode:
// COMPUTE(s) = panel factorization, SCATTER(s, t) = the direct block
// updates of s into ONE target supernode t — one node per (source,
// target), so the updates of s into different ancestors run concurrently
// (near the etree root this is most of the recoverable parallelism).
// Because RLB writes straight into ancestor storage, the plan's
// per-target contributor chains are what makes the writes safe: a
// target's storage has exactly one writer at a time, in ascending source
// order — the sequential accumulation order, so results stay bitwise
// identical to kCpuSerial. GPU supernodes are fused plan nodes (device
// pipeline + their own assembly, standing in the chains for every one of
// their targets); each draws a stream-pair/buffer slot from a bounded
// pool so independent GPU supernodes overlap on the device, while its
// first device operation waits on the modeled finish of its data-flow
// predecessors (PlanClock), so dependent ones never do. BATCH nodes
// run fused CPU sweeps over small sibling subtrees (compute + all direct
// updates per member, ascending) — never on the device: the device
// variants assemble block products through scratch, a different (though
// combo-invariant) rounding than the CPU's direct in-place updates, and
// batching must not change the bits. In the scheduled path all
// synchronization is device-side (deferred_clock): a task must never
// advance the shared modeled host clock to a stream tail, or the
// post-drain fold of deferred CPU-task time would count the overlapped
// transfer wait twice.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "spchol/core/internal.hpp"
#include "spchol/symbolic/exec_plan.hpp"

namespace spchol::detail {

namespace {

/// Resolved addressing for one block: where its rows live inside the
/// target supernode.
struct BlockTarget {
  double* tvals;      // target supernode value base
  index_t ldt;        // target leading dimension
  index_t rpos;       // row position of the block within the target rows
  index_t tcol0;      // first target-local column (diagonal updates)
};

BlockTarget resolve(FactorContext& ctx, const SupernodeBlock& b) {
  const SymbolicFactor& symb = ctx.symb;
  BlockTarget t;
  t.tvals = ctx.sn_values(b.target_sn);
  t.ldt = symb.sn_nrows(b.target_sn);
  t.rpos = symb.row_position(b.target_sn, b.first_row);
  SPCHOL_CHECK(t.rpos >= 0, "block rows missing from target structure");
  t.tcol0 = b.first_row - symb.sn_begin(b.target_sn);
  return t;
}

/// Position of block rows of `b` within the supernode containing block
/// `diag` (the target of a (b, diag) DGEMM).
index_t rows_position_in(FactorContext& ctx, const SupernodeBlock& b,
                         const SupernodeBlock& diag) {
  const index_t pos =
      ctx.symb.row_position(diag.target_sn, b.first_row);
  SPCHOL_CHECK(pos >= 0, "gemm target rows missing from ancestor structure");
  return pos;
}

/// CPU RLB updates of supernode s INTO one target supernode: for every
/// block b_i of s whose rows live in `target`, one DSYRK plus one DGEMM
/// per later block pair (b_k, b_i) — all of which write into `target`'s
/// storage (the target of a (b_k, b_i) product is b_i's supernode). The
/// scheduled driver runs one SCATTER task per (s, target), chained per
/// target in ascending source order, so splitting never reorders any
/// target's accumulation. Blocks are sorted by row, so each target owns a
/// contiguous block range and iterating targets ascending replays the
/// sequential (i, k) product order exactly.
void rlb_cpu_updates_target(FactorContext& ctx, index_t s, index_t target) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t w = symb.sn_width(s);
  const index_t r = symb.sn_nrows(s);
  const double* panel = ctx.sn_values(s);
  const auto blocks = symb.sn_blocks(s);
  const index_t m = static_cast<index_t>(blocks.size());
  for (index_t i = 0; i < m; ++i) {
    const auto& bi = blocks[i];
    if (bi.target_sn != target) continue;
    const BlockTarget t = resolve(ctx, bi);
    ctx.cpu_syrk(bi.nrows, w, panel + bi.src_offset, r,
                 t.tvals + t.rpos +
                     static_cast<offset_t>(t.tcol0) * t.ldt,
                 t.ldt);
    for (index_t k = i + 1; k < m; ++k) {
      const auto& bk = blocks[k];
      const index_t rposk = rows_position_in(ctx, bk, bi);
      ctx.cpu_gemm(bk.nrows, bi.nrows, w, panel + bk.src_offset, r,
                   panel + bi.src_offset, r,
                   t.tvals + rposk +
                       static_cast<offset_t>(t.tcol0) * t.ldt,
                   t.ldt);
    }
  }
}

/// All CPU RLB updates of supernode s (the sequential driver).
void rlb_cpu_updates(FactorContext& ctx, index_t s) {
  for (const index_t target : ctx.symb.sn_update_targets(s)) {
    rlb_cpu_updates_target(ctx, s, target);
  }
}

/// Buffer requirements of the GPU variants, in std::size_t (entries).
struct RlbSizes {
  std::size_t gpu_panel_max = 0;
  std::size_t gpu_update_max = 0;   // v1: below²; v2: largest block pair
  std::size_t host_update_max = 0;  // staging area element count
};

RlbSizes rlb_sizes(FactorContext& ctx, bool gpu_enabled, bool batched) {
  const SymbolicFactor& symb = ctx.symb;
  RlbSizes sz;
  for (index_t s = 0; s < symb.num_supernodes(); ++s) {
    if (!gpu_enabled || !ctx.on_gpu(s)) continue;
    const std::size_t below = static_cast<std::size_t>(symb.sn_below(s));
    sz.gpu_panel_max = std::max(
        sz.gpu_panel_max, static_cast<std::size_t>(symb.sn_entries(s)));
    if (batched) {
      sz.gpu_update_max = std::max(sz.gpu_update_max, below * below);
      sz.host_update_max = std::max(sz.host_update_max, below * below);
    } else {
      std::size_t max_block = 0;
      for (const auto& b : symb.sn_blocks(s)) {
        max_block = std::max(max_block, static_cast<std::size_t>(b.nrows));
      }
      sz.gpu_update_max = std::max(sz.gpu_update_max, max_block * max_block);
      sz.host_update_max =
          std::max(sz.host_update_max, max_block * max_block);
    }
  }
  return sz;
}

/// Device-pipeline state of the GPU variants: one slot of the scheduled
/// pool, or the single shared state of the sequential loop. Exclusivity is
/// the caller's job (sequential loop, or one lease per in-flight task).
struct RlbGpuState {
  gpu::Stream compute;
  gpu::Stream copy;
  gpu::DeviceBuffer panel_dev;
  gpu::DeviceBuffer update_dev;
  // The streamed variant double-buffers its host staging area so the
  // assembly of product p-1 can read while product p's copy lands.
  std::vector<double> u_host;
  std::size_t host_update_max = 0;
  // Scheduled-path semantics: resolve buffer-reuse hazards with
  // device-side stream waits and never advance the modeled host clock
  // (the deferred CPU-time fold owns the host timeline).
  bool deferred_clock = false;

  RlbGpuState(gpu::Device& dev, const RlbSizes& sz, bool batched,
              bool deferred = false)
      : compute(dev),
        copy(dev),
        u_host(sz.host_update_max * (batched ? 1 : 2)),
        host_update_max(sz.host_update_max),
        deferred_clock(deferred) {
    if (sz.gpu_panel_max > 0) {
      panel_dev = gpu::DeviceBuffer(dev, sz.gpu_panel_max);
    }
    if (sz.gpu_update_max > 0) {
      update_dev = gpu::DeviceBuffer(dev, sz.gpu_update_max);
    }
  }
};

/// `dev` is the device the planner assigned s to (the owner of st's
/// streams/buffers); `dev_ord` its effective ordinal for the stats
/// breakdown. Single-device paths pass ctx.dev / 0.
void rlb_gpu_supernode(FactorContext& ctx, gpu::Device& dev, index_t dev_ord,
                       index_t s, RlbGpuState& st, bool batched) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t w = symb.sn_width(s);
  const index_t r = symb.sn_nrows(s);
  const index_t below = r - w;
  double* panel = ctx.sn_values(s);
  const auto blocks = symb.sn_blocks(s);
  const index_t m = static_cast<index_t>(blocks.size());
  gpu::Stream& compute = st.compute;
  gpu::Stream& copy = st.copy;
  gpu::DeviceBuffer& panel_dev = st.panel_dev;
  gpu::DeviceBuffer& update_dev = st.update_dev;
  std::vector<double>& u_host = st.u_host;

  // --- factor the panel on the device ---
  ctx.count_gpu_supernode(dev_ord);
  // Panel/update buffer reuse hazard against the previous occupant's
  // transfers: a device-side wait in the scheduled path, a host wait in
  // the genuinely sequential one.
  if (st.deferred_clock) {
    compute.wait(copy.record());
  } else {
    copy.synchronize();
  }
  const std::size_t entries = static_cast<std::size_t>(r) * w;
  gpu::copy_h2d(dev, compute, panel_dev, 0, panel, entries,
                /*async=*/true);
  try {
    gpu::potrf_lower(dev, compute, w, panel_dev, 0, r);
  } catch (const NotPositiveDefinite& e) {
    throw NotPositiveDefinite(symb.sn_begin(s) + e.column());
  }
  if (below > 0) {
    gpu::trsm_right_lower_trans(dev, compute, below, w, panel_dev, 0,
                                r, w, r);
  }
  copy.wait(compute.record());
  gpu::copy_d2h(dev, copy, panel, panel_dev, 0, entries,
                /*async=*/true);
  if (below == 0) return;

  if (batched) {
    // --- v1: all block products into a device update matrix, one D2H.
    // Every product overwrites its own disjoint tile (beta = 0), so no
    // zeroing pass is needed; the assembly reads only the lower
    // block-triangle the products cover.
    const std::size_t ucount =
        static_cast<std::size_t>(below) * static_cast<std::size_t>(below);
    for (index_t i = 0; i < m; ++i) {
      const auto& bi = blocks[i];
      const offset_t bi_off = bi.src_offset - w;  // below-space offset
      gpu::syrk_lower_nt_beta0(dev, compute, bi.nrows, w, panel_dev,
                               bi.src_offset, r, update_dev,
                               static_cast<std::size_t>(bi_off) +
                                   static_cast<std::size_t>(bi_off) *
                                       below,
                               below);
      for (index_t k = i + 1; k < m; ++k) {
        const auto& bk = blocks[k];
        const offset_t bk_off = bk.src_offset - w;
        gpu::gemm_nt_minus_beta0(dev, compute, bk.nrows, bi.nrows, w,
                                 panel_dev, bk.src_offset, r,
                                 bi.src_offset, r, update_dev,
                                 static_cast<std::size_t>(bk_off) +
                                     static_cast<std::size_t>(bi_off) *
                                         below,
                                 below);
      }
    }
    gpu::copy_d2h(dev, compute, u_host.data(), update_dev, 0, ucount,
                  /*async=*/st.deferred_clock);
    ctx.account_assembly(rl_assemble(ctx, s, u_host.data()));
    return;
  }

  // --- v2: one product at a time, transferred back as soon as it is
  // computed ("one transfer and assembly operation for each individual
  // DSYRK or DGEMM call"). The device pipeline is kept busy: the next
  // product waits only for the previous copy-out of the scratch (stream
  // event, no host block), and the host assembles product p-1 while the
  // device computes product p. Device scratch stays a single block pair
  // — the low-memory property that survives nlpkkt120.
  struct Pending {
    bool is_syrk;
    index_t rows, cols;  // product dimensions (rows x cols, ld = rows)
    double* tbase;
    index_t ldt;
    int staging;
    gpu::Event copy_done;
  };
  Pending pending{};
  bool has_pending = false;
  int staging = 0;
  auto flush_pending = [&]() {
    if (!has_pending) return;
    // Sequential path: the host genuinely waits for the product's copy.
    // Scheduled path: the wait lives on the stream timeline only (the
    // data itself moved eagerly), keeping the host clock free for the
    // post-drain fold of deferred CPU time.
    if (!st.deferred_clock) dev.wait_event(pending.copy_done);
    const double* u = u_host.data() +
                      static_cast<std::size_t>(pending.staging) *
                          st.host_update_max;
    double entries_assembled = 0.0;
    for (index_t c = 0; c < pending.cols; ++c) {
      const index_t v0 = pending.is_syrk ? c : 0;
      double* tcol = pending.tbase + static_cast<offset_t>(c) * pending.ldt;
      const double* ucol = u + static_cast<std::size_t>(c) * pending.rows;
      for (index_t v = v0; v < pending.rows; ++v) tcol[v] += ucol[v];
      entries_assembled += static_cast<double>(pending.rows - v0);
    }
    ctx.account_assembly(entries_assembled);
    has_pending = false;
  };
  gpu::Event scratch_free{};  // completion of the last copy out of scratch
  auto stream_product = [&](bool is_syrk, index_t rows, index_t cols,
                            offset_t src_rows_off, offset_t src_cols_off,
                            double* tbase, index_t ldt) {
    const std::size_t cnt =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    compute.wait(scratch_free);  // scratch reuse hazard (device-side)
    if (is_syrk) {
      gpu::syrk_lower_nt_beta0(dev, compute, rows, w, panel_dev,
                               src_rows_off, r, update_dev, 0, rows);
    } else {
      gpu::gemm_nt_minus_beta0(dev, compute, rows, cols, w, panel_dev,
                               src_rows_off, r, src_cols_off, r,
                               update_dev, 0, rows);
    }
    copy.wait(compute.record());
    double* stage = u_host.data() +
                    static_cast<std::size_t>(staging) * st.host_update_max;
    gpu::copy_d2h(dev, copy, stage, update_dev, 0, cnt,
                  /*async=*/true);
    scratch_free = copy.record();
    // Assemble the previous product while this one is in flight.
    flush_pending();
    pending = {is_syrk, rows, cols, tbase, ldt, staging, scratch_free};
    has_pending = true;
    staging ^= 1;
  };
  for (index_t i = 0; i < m; ++i) {
    const auto& bi = blocks[i];
    const BlockTarget t = resolve(ctx, bi);
    stream_product(
        /*is_syrk=*/true, bi.nrows, bi.nrows, bi.src_offset, bi.src_offset,
        t.tvals + t.rpos + static_cast<offset_t>(t.tcol0) * t.ldt, t.ldt);
    for (index_t k = i + 1; k < m; ++k) {
      const auto& bk = blocks[k];
      const index_t rposk = rows_position_in(ctx, bk, bi);
      stream_product(
          /*is_syrk=*/false, bk.nrows, bi.nrows, bk.src_offset,
          bi.src_offset,
          t.tvals + rposk + static_cast<offset_t>(t.tcol0) * t.ldt, t.ldt);
    }
  }
  flush_pending();
}

void run_rlb_sequential(FactorContext& ctx) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t ns = symb.num_supernodes();
  const FactorOptions& opts = ctx.opts;
  const bool gpu_enabled = opts.exec == Execution::kGpuHybrid ||
                           opts.exec == Execution::kGpuOnly;
  const bool batched = opts.rlb_variant == RlbVariant::kBatched;

  const RlbSizes sz = rlb_sizes(ctx, gpu_enabled, batched);
  RlbGpuState st(ctx.dev, sz, batched);
  if (sz.gpu_panel_max > 0) ctx.gpu_stream_pairs = 1;
  for (index_t s = 0; s < ns; ++s) {
    if (!ctx.on_gpu(s)) {
      cpu_factor_panel(ctx, s);
      rlb_cpu_updates(ctx, s);
    } else {
      rlb_gpu_supernode(ctx, ctx.dev, 0, s, st, batched);
    }
  }
  ctx.dev.synchronize();
}

void run_rlb_scheduled(FactorContext& ctx) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t ns = symb.num_supernodes();
  const bool hybrid = ctx.opts.exec == Execution::kGpuHybrid;
  const bool batched = ctx.opts.rlb_variant == RlbVariant::kBatched;

  const ExecutionResources* res = ctx.res;

  // Scheduler: the injected per-session one (reset and rebuilt each
  // run), or a per-call local — identical semantics either way.
  TaskScheduler own_sched;
  TaskScheduler& sched =
      (res != nullptr && res->sched != nullptr) ? *res->sched : own_sched;
  if (&sched != &own_sched) sched.reset();

  // The shared task-graph shape, in split-scatter mode with fused GPU
  // nodes; small sibling subtrees coalesce into BATCH nodes. Served from
  // the service's pattern cache when injected, built per call otherwise
  // — the same build_planned_graph either way.
  std::optional<PlannedGraph> own_plan;
  const PlannedGraph* pg =
      (res != nullptr && res->planned != nullptr)
          ? res->planned
          : &own_plan.emplace(
                build_planned_graph(symb, ctx.opts, ctx.workers));
  sched.set_partitions(pg->partitions);
  const ExecutionPlan& plan = pg->plan;
  const auto nodes = plan.nodes();
  ctx.batches_formed = plan.batches_formed();
  ctx.supernodes_batched = plan.supernodes_batched();

  // Per-GPU-supernode buffer needs (panel; update scratch = below² for
  // the batched variant, largest block pair for the streamed one),
  // ranked descending: slot k only hosts the k-th largest concurrent
  // supernode, so N slots fit where N copies of the largest could not.
  auto update_entries = [&](index_t s) -> std::size_t {
    const std::size_t below = static_cast<std::size_t>(symb.sn_below(s));
    if (batched) return below * below;
    std::size_t max_block = 0;
    for (const auto& b : symb.sn_blocks(s)) {
      max_block = std::max(max_block, static_cast<std::size_t>(b.nrows));
    }
    return max_block * max_block;
  };
  // Effective ordinal a plan-node device assignment resolves to on THIS
  // run (mod-folded when the plan was built for more devices than the
  // registry provides).
  const std::size_t ndev = hybrid ? ctx.ndev : 1;
  auto ord = [&ctx](index_t dv) {
    return static_cast<std::size_t>(ctx.device_ordinal(dv));
  };
  const std::span<const index_t> devof = pg->device_of;
  auto device_of_sn = [&](index_t s) {
    return devof.empty() ? std::size_t{0} : ord(devof[s]);
  };

  std::vector<std::vector<std::size_t>> panel_need(ndev), update_need(ndev);
  if (hybrid) {
    for (index_t s = 0; s < ns; ++s) {
      if (!ctx.on_gpu(s)) continue;
      const std::size_t d = device_of_sn(s);
      panel_need[d].push_back(static_cast<std::size_t>(symb.sn_entries(s)));
      update_need[d].push_back(update_entries(s));
    }
    for (std::size_t d = 0; d < ndev; ++d) {
      std::sort(panel_need[d].rbegin(), panel_need[d].rend());
      std::sort(update_need[d].rbegin(), update_need[d].rend());
    }
  }

  // Device-resident factor storage (opt-in; see rl.cpp for the full
  // rationale): one held reservation per engaged device sized as the sum
  // of its assigned GPU panels.
  std::vector<gpu::DeviceBuffer> resident;
  if (hybrid && ctx.opts.device_resident_factor) {
    std::vector<std::size_t> resident_entries(ndev, 0);
    for (index_t s = 0; s < ns; ++s) {
      if (!ctx.on_gpu(s)) continue;
      resident_entries[device_of_sn(s)] +=
          static_cast<std::size_t>(symb.sn_entries(s));
    }
    for (std::size_t d = 0; d < ndev; ++d) {
      if (resident_entries[d] == 0) continue;
      resident.emplace_back(ctx.device(static_cast<index_t>(d)),
                            resident_entries[d]);
    }
  }

  // One pipeline state (stream pair + device buffers + host staging) per
  // in-flight GPU supernode, from a bounded PER-DEVICE pool that shrinks
  // — down to the old single-pipeline behaviour — under device memory
  // pressure. With an injected arena each pool is cached under the
  // pattern+options key mixed with its device ordinal (ordinal 0 keeps
  // the legacy key), so cached slots never migrate across devices; each
  // device gets its own scheduler counting resource.
  using RlbSlotPool = gpu::SlotPool<RlbGpuState>;
  constexpr std::uint64_t kRlbPoolTag = 0x524c422d504f4full;  // "RLB-POO"
  constexpr std::uint64_t kDevKeyMix = 0x9e3779b97f4a7c15ull;
  std::vector<std::shared_ptr<RlbSlotPool>> pools(ndev);
  std::vector<std::size_t> gpu_res(ndev, TaskScheduler::kNoResource);
  std::size_t pool_slots = 0;
  for (std::size_t d = 0; d < ndev; ++d) {
    const std::size_t num_gpu = panel_need[d].size();
    if (num_gpu == 0) continue;
    gpu::Device& dv = ctx.device(static_cast<index_t>(d));
    const std::size_t want = std::min(ctx.gpu_slot_budget(), num_gpu);
    auto make_pool = [&] {
      return std::make_shared<RlbSlotPool>(want, [&, d](std::size_t k) {
        RlbSizes slot_sz;
        slot_sz.gpu_panel_max = panel_need[d][k];
        slot_sz.gpu_update_max = update_need[d][k];
        slot_sz.host_update_max = update_need[d][k];
        return std::make_unique<RlbGpuState>(dv, slot_sz, batched,
                                             /*deferred=*/true);
      });
    };
    const std::uint64_t key =
        res != nullptr ? res->pool_key ^ kRlbPoolTag ^ (kDevKeyMix * d) : 0;
    pools[d] = (res != nullptr && res->arena != nullptr)
                   ? res->arena->pool<RlbSlotPool>(key, make_pool)
                   : make_pool();
    gpu_res[d] = sched.add_resource(pools[d]->size());
    pool_slots += pools[d]->size();
  }
  ctx.gpu_stream_pairs = static_cast<index_t>(pool_slots);

  // Modeled cross-device hops of s's updates: the slice aimed at GPU
  // targets assigned to OTHER devices pays an explicit modeled transfer
  // (deterministic from the plan, priced at build time; the assembly
  // itself keeps the plan's fixed order, so the bits never move),
  // returned per destination ordinal so each hop charges its actual
  // src→dst link when a topology is set. RLB fuses GPU assembly into
  // the compute node, so the charge rides there.
  struct CrossHop {
    index_t src = 0;
    index_t dst = 0;
    double entries = 0.0;
  };
  auto cross_hops = [&](index_t s) -> std::vector<CrossHop> {
    std::vector<CrossHop> hops;
    if (ndev <= 1 || devof.empty() || !ctx.on_gpu(s)) return hops;
    const index_t w = symb.sn_width(s);
    const index_t below = symb.sn_below(s);
    const auto rows = symb.sn_rows(s);
    const std::size_t sd = device_of_sn(s);
    index_t b0 = 0;
    while (b0 < below) {
      const index_t target = symb.col_to_sn(rows[w + b0]);
      index_t b1 = b0;
      while (b1 < below && symb.col_to_sn(rows[w + b1]) == target) ++b1;
      if (ctx.on_gpu(target) && device_of_sn(target) != sd) {
        const index_t td = static_cast<index_t>(device_of_sn(target));
        const double x = 0.5 * static_cast<double>(b1 - b0) *
                         static_cast<double>((below - b0) +
                                             (below - b1 + 1));
        bool merged = false;
        for (CrossHop& h : hops) {
          if (h.dst == td) {
            h.entries += x;
            merged = true;
            break;
          }
        }
        if (!merged) {
          hops.push_back({static_cast<index_t>(sd), td, x});
        }
      }
      b0 = b1;
    }
    return hops;
  };

  // Every node records its modeled finish; a fused GPU node's first
  // device operation waits on its data-flow predecessors' latest finish
  // (see PlanClock), exactly as in the RL executor.
  PlanClock clock(plan, symb, ctx.makespan0);

  // --- map plan nodes to scheduler tasks ---------------------------------
  std::vector<std::size_t> task_of(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& n = nodes[i];
    switch (n.kind) {
      case PlanNodeKind::kCompute: {
        const index_t s = n.sn;
        if (n.on_gpu) {
          // Fused device task (pipeline + its own assembly) on a pooled
          // slot big enough for this supernode. No ascending GPU chain:
          // the plan's per-target contributor chains are the only
          // ordering assembly needs, so GPU supernodes in independent
          // subtrees overlap on the device.
          const std::size_t need_panel =
              static_cast<std::size_t>(symb.sn_entries(s));
          const std::size_t need_update = update_entries(s);
          const std::size_t dord = ord(n.device);
          const std::vector<CrossHop> xhops = cross_hops(s);
          task_of[i] = sched.add_task(
              n.priority,
              clock.device_task(
                  ctx, i,
                  [&ctx, s, &pools, batched, need_panel, need_update, dord,
                   xhops](gpu::Event after) {
                    auto lease = pools[dord]->acquire(
                        [&](const RlbGpuState& slot) {
                          return slot.panel_dev.size() >= need_panel &&
                                 slot.update_dev.size() >= need_update;
                        });
                    for (const CrossHop& h : xhops) {
                      ctx.account_cross_device(h.src, h.dst, h.entries);
                    }
                    lease->compute.wait(after);
                    rlb_gpu_supernode(
                        ctx, ctx.device(static_cast<index_t>(dord)),
                        static_cast<index_t>(dord), s, *lease, batched);
                    return std::max(lease->compute.tail(),
                                    lease->copy.tail());
                  }),
              gpu_res[dord], n.queue);
        } else {
          task_of[i] = sched.add_task(
              n.priority,
              clock.host_task(ctx, i, [&ctx, s] { cpu_factor_panel(ctx, s); }),
              TaskScheduler::kNoResource, n.queue);
        }
        break;
      }
      case PlanNodeKind::kScatter: {
        const index_t s = n.sn;
        const index_t target = n.target;
        task_of[i] = sched.add_task(
            n.priority, clock.host_task(ctx, i, [&ctx, s, target] {
              rlb_cpu_updates_target(ctx, s, target);
            }),
            TaskScheduler::kNoResource, n.queue);
        break;
      }
      case PlanNodeKind::kBatch: {
        // Fused CPU sweep: panel factorization + ALL direct updates per
        // member, in ascending order — the sequential driver's exact
        // operation sequence, so the bits match it. BatchScope charges
        // the whole batch as one fused call group.
        const index_t first = n.batch_first;
        const index_t last = n.batch_last;
        task_of[i] = sched.add_task(
            n.priority, clock.host_task(ctx, i, [&ctx, first, last] {
              FactorContext::BatchScope batch(ctx);
              for (index_t s = first; s <= last; ++s) {
                cpu_factor_panel(ctx, s);
                rlb_cpu_updates(ctx, s);
              }
            }),
            TaskScheduler::kNoResource, n.queue);
        break;
      }
      case PlanNodeKind::kBatchScatter:
      case PlanNodeKind::kAggregate:
      case PlanNodeKind::kApply:
        // Fan-both is an RL-only plan shape (build_planned_graph never
        // requests it for RLB).
        SPCHOL_CHECK(false, "fan-both plan node in an RLB plan");
        break;
    }
  }
  {
    const auto edges = plan.edges();
    const auto echain = plan.edge_chain();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      sched.add_edge(task_of[edges[e].first], task_of[edges[e].second],
                     echain[e] != 0);
    }
  }

  // Drain on the injected persistent crew (caller participates as one
  // extra worker) or on per-call dedicated threads; both produce the
  // same factors.
  ctx.sched_stats = (res != nullptr && res->crew != nullptr)
                        ? sched.run_on(*res->crew)
                        : sched.run(ctx.workers);
  // Task-graph makespans replayed from measured per-task durations.
  ctx.modeled_task_serial_seconds = sched.modeled_makespan(1);
  ctx.modeled_task_parallel_seconds = sched.modeled_makespan(ctx.workers);
  ctx.flush_deferred();
  ctx.dev.wait_event({clock.latest_host()});
  for (std::size_t d = 0; d < ndev; ++d) {
    ctx.device(static_cast<index_t>(d)).synchronize();
  }
}

}  // namespace

void run_rlb(FactorContext& ctx) {
  if (ctx.scheduled) {
    run_rlb_scheduled(ctx);
  } else {
    run_rlb_sequential(ctx);
  }
}

}  // namespace spchol::detail
