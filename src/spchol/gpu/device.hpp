// Simulated CUDA-like device runtime.
//
// The device executes numerics for real (kernels run on host threads, and
// "device memory" is host memory behind an accounting layer), while a
// discrete-event timeline models when each operation would complete on the
// paper's A100: every stream is a FIFO whose operations start at
// max(stream tail, host issue time); synchronization advances the host
// clock to the stream tail. Streams share the device's arithmetic: every
// kernel also draws flops / peak seconds from ONE compute-throughput
// budget per device and cannot finish before that budget has paid for
// it, so concurrent large kernels serialize at the PerfModel peak while
// the launch and half-performance latency of small kernels still
// overlap. Draws are granted in enqueue order. Transfers, and the
// lockstep phases of the cooperative multi-device kernels (priced by
// their own model in gpu/blas), do not draw. This reproduces exactly
// the behaviours the paper's offloading algorithms depend on:
//   * asynchronous D2H of the factored supernode overlapping the update
//     kernel (§III),
//   * per-transfer latency vs bandwidth trade-offs (RLB v1 vs v2, §IV.B),
//   * the hard 40 GB memory capacity that fails RL on nlpkkt120 (Table I).
//
// Concurrency. The scheduled hybrid drivers issue operations from several
// worker threads at once (one stream pair per in-flight GPU supernode), so
// the timeline, the memory accounting, and the stats are all guarded by one
// device mutex. Streams register with their device on construction and
// deregister on destruction (folding their tail into the retired-work
// watermark), so short-lived per-task streams never leave dangling pointers
// behind for synchronize()/makespan() to walk.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "spchol/gpu/perf_model.hpp"
#include "spchol/support/common.hpp"
#include "spchol/support/thread_pool.hpp"

namespace spchol::gpu {

/// Thrown when a device allocation exceeds the configured capacity —
/// the condition that prevents RL from factorizing nlpkkt120 in the paper.
class DeviceOutOfMemory : public Error {
 public:
  DeviceOutOfMemory(std::size_t requested, std::size_t in_use,
                    std::size_t capacity)
      : Error("device out of memory: requested " + std::to_string(requested) +
              " B but only " + std::to_string(capacity - in_use) +
              " B are available (" + std::to_string(in_use) +
              " B in use of " + std::to_string(capacity) + " B capacity)"),
        requested_(requested),
        in_use_(in_use),
        capacity_(capacity) {}
  std::size_t requested() const noexcept { return requested_; }
  std::size_t in_use() const noexcept { return in_use_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Bytes that were free at the failing allocation.
  std::size_t available() const noexcept { return capacity_ - in_use_; }

 private:
  std::size_t requested_, in_use_, capacity_;
};

struct DeviceConfig {
  /// Device memory capacity in bytes (A100: 40 GB).
  std::size_t memory_bytes = 40ull << 30;
  PerfModel model{};
  /// Real host threads used to execute device kernels (simulation detail,
  /// does not affect modeled times; 0 = all hardware threads).
  std::size_t compute_threads = 0;
};

class Device;

/// A recorded point in a stream's timeline (cudaEvent equivalent).
struct Event {
  double time = 0.0;
};

/// One device execution queue. Operations enqueued on the same stream are
/// serialized; different streams may overlap in time, but their kernels
/// share the device's compute-throughput budget (see Device::enqueue). A
/// Stream registers with its device for the duration of its lifetime (and
/// deregisters on destruction), so streams may safely be shorter-lived
/// than the device — e.g. pooled per-task stream pairs. Pinned in memory:
/// neither copyable nor movable (the device holds its address while
/// registered).
class Stream {
 public:
  explicit Stream(Device& dev);
  ~Stream();
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Completion time (device timeline) of the last enqueued operation.
  double tail() const noexcept;

  /// Blocks the host until every enqueued operation has completed.
  void synchronize();

  /// Records an event capturing all work enqueued so far.
  Event record() const noexcept;

  /// Makes subsequent operations on this stream wait for `e`
  /// (cudaStreamWaitEvent equivalent; does not block the host).
  void wait(const Event& e) noexcept;

 private:
  friend class Device;
  Device* dev_;
  double tail_ = 0.0;  // guarded by the device mutex
};

/// Modeled time breakdown, accumulated by the device.
struct DeviceStats {
  double h2d_seconds = 0.0;
  double d2h_seconds = 0.0;
  double kernel_seconds = 0.0;
  /// Modeled seconds during which an operation ran while at least one
  /// OTHER stream still had work in flight — the cross-stream concurrency
  /// the multi-stream pipeline exists to create.
  double overlap_seconds = 0.0;
  std::size_t h2d_bytes = 0;
  std::size_t d2h_bytes = 0;
  std::size_t num_h2d = 0;
  std::size_t num_d2h = 0;
  std::size_t num_kernels = 0;
  std::size_t num_streams_created = 0;
};

class Device {
 public:
  explicit Device(DeviceConfig cfg = {});

  const DeviceConfig& config() const noexcept { return cfg_; }
  const PerfModel& model() const noexcept { return cfg_.model; }

  // --- memory accounting -------------------------------------------------
  std::size_t mem_used() const noexcept;
  std::size_t mem_peak() const noexcept;
  std::size_t mem_capacity() const noexcept { return cfg_.memory_bytes; }

  // --- host clock ----------------------------------------------------------
  double host_time() const noexcept;
  /// Advances the host clock by `seconds` of modeled CPU work.
  void advance_host(double seconds);
  /// Blocks the host until `e` has completed (cudaEventSynchronize).
  void wait_event(const Event& e);
  /// Waits for all live streams of this device (plus the retired work of
  /// streams already destroyed).
  void synchronize();
  /// Makespan so far: host clock joined with every stream tail, live or
  /// retired.
  double makespan() const noexcept;

  /// Snapshot of the accumulated stats (copied under the device mutex).
  DeviceStats stats() const;
  /// Live registered streams — pool sizing / regression-test aid.
  std::size_t num_live_streams() const;

  /// Pool used to actually execute device kernels.
  ThreadPool& compute_pool();
  std::size_t compute_threads() const noexcept {
    return cfg_.compute_threads;
  }

  // --- operation enqueueing (used by copy_h2d/d2h and gpu::blas) ----------
  /// Reserves a slot on `s` of duration `dur`; returns the op start time.
  /// A kernel passes its `flops`: it also draws
  /// flops / (gpu_peak_gflops·1e9) seconds from the device's
  /// compute-throughput budget, starting no earlier than the op itself,
  /// and ends no earlier than that draw completes (transfers pass 0 and
  /// draw nothing). Constant time under the device mutex; draws are
  /// granted in enqueue order. Also accumulates
  /// DeviceStats::overlap_seconds against the other streams' tails.
  double enqueue(Stream& s, double dur, double flops = 0.0);
  /// Stats recording for the transfer/kernel wrappers (locked internally).
  void note_h2d(std::size_t bytes, double seconds);
  void note_d2h(std::size_t bytes, double seconds);
  void note_kernel(double seconds);

 private:
  friend class DeviceBuffer;
  friend class Stream;
  void mem_acquire(std::size_t bytes);
  void mem_release(std::size_t bytes);
  void track_stream(Stream* s);
  /// Removes `s` from the registry and folds its tail into the retired
  /// watermark, so destroying a stream never loses its modeled work and
  /// never leaves a dangling pointer for synchronize()/makespan().
  void untrack_stream(Stream* s);
  /// max(retired watermark, every live stream tail); caller holds mu_.
  double device_tail_locked() const;

  DeviceConfig cfg_;  // compute_threads resolved (never 0)

  mutable std::mutex mu_;
  std::size_t mem_used_ = 0;
  std::size_t mem_peak_ = 0;
  double host_time_ = 0.0;
  double retired_tail_ = 0.0;      // max tail over destroyed streams
  double compute_free_ = 0.0;      // end of the latest budget draw
  std::vector<Stream*> streams_;   // live registered streams
  DeviceStats stats_;
};

/// A device-memory allocation (host-backed doubles). RAII: releases its
/// accounting on destruction. Move-only.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  /// Throws DeviceOutOfMemory when the accounted capacity is exceeded.
  DeviceBuffer(Device& dev, std::size_t count);
  ~DeviceBuffer();
  DeviceBuffer(DeviceBuffer&& o) noexcept;
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  double* data() noexcept { return data_; }
  const double* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return count_; }
  bool valid() const noexcept { return data_ != nullptr; }
  void release();

 private:
  Device* dev_ = nullptr;
  double* data_ = nullptr;
  std::size_t count_ = 0;
};

/// Bounded pool of per-in-flight-supernode GPU resources (a stream pair
/// plus device buffers, packaged by the numeric drivers as `Slot`).
///
/// Construction allocates up to `want` slots and degrades gracefully: when
/// the device cannot fit another slot the pool simply stops growing, so a
/// memory-capped device falls back toward the single-pipeline behaviour
/// instead of failing. Only when not even ONE slot fits does the
/// DeviceOutOfMemory escape (carrying the available-byte report) — a
/// zero-slot pool would hang every acquire() forever.
///
/// Slots need not be identical: the drivers RANK them (slot 0 sized for
/// the largest GPU supernode, slot k for the k-th largest), which is what
/// lets several slots fit under a device memory cap that could never hold
/// N copies of the largest. acquire() takes a fit predicate; slot 0 must
/// satisfy every task's predicate by construction.
template <class Slot>
class SlotPool {
 public:
  /// `make(k)` returns a std::unique_ptr<Slot> for rank k (capacities
  /// non-increasing in k); it may throw DeviceOutOfMemory to stop the
  /// pool's growth.
  template <class Make>
  SlotPool(std::size_t want, Make&& make) {
    for (std::size_t k = 0; k < want; ++k) {
      try {
        slots_.push_back(make(k));
      } catch (const DeviceOutOfMemory&) {
        if (slots_.empty()) throw;
        break;
      }
    }
    // Seed last-use stamps so the first acquires rotate across slots.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      free_.push_back(true);
      last_use_.push_back(i);
    }
    next_stamp_ = slots_.size();
  }

  std::size_t size() const noexcept { return slots_.size(); }

  /// RAII lease on one slot; returns it to the pool on destruction
  /// (including when the task body throws).
  class Lease {
   public:
    Lease(SlotPool& pool, std::size_t idx)
        : pool_(&pool), slot_(pool.slots_[idx].get()), idx_(idx) {}
    ~Lease() {
      if (pool_ != nullptr) pool_->release(idx_);
    }
    Lease(Lease&& o) noexcept
        : pool_(o.pool_), slot_(o.slot_), idx_(o.idx_) {
      o.pool_ = nullptr;
      o.slot_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Slot& operator*() const noexcept { return *slot_; }
    Slot* operator->() const noexcept { return slot_; }

   private:
    SlotPool* pool_;
    Slot* slot_;
    std::size_t idx_;
  };

  /// Blocks until a free slot satisfies `fits` (slot 0 always must, so a
  /// waiter can never starve: every holder runs to completion). Among the
  /// fitting free slots the LEAST-RECENTLY-USED wins, which rotates
  /// equally-sized slots — consecutive acquirers land on different stream
  /// pairs even when the real threads happen to run one after another, so
  /// the modeled overlap is a property of the task graph and the pool
  /// size, not of wall-clock interleaving. The schedulers bound in-flight
  /// acquirers to size() via a resource token, so waits are rare.
  template <class Fits>
  Lease acquire(Fits&& fits) {
    std::unique_lock<std::mutex> lk(mu_);
    SPCHOL_CHECK(!slots_.empty(), "acquire on an empty slot pool");
    std::size_t idx = 0;
    cv_.wait(lk, [&] {
      bool found = false;
      std::size_t best_stamp = 0;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!free_[i] || !fits(*slots_[i])) continue;
        if (!found || last_use_[i] < best_stamp) {
          found = true;
          best_stamp = last_use_[i];
          idx = i;
        }
      }
      return found;
    });
    free_[idx] = false;
    return Lease(*this, idx);
  }
  Lease acquire() {
    return acquire([](const Slot&) { return true; });
  }

 private:
  void release(std::size_t idx) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      free_[idx] = true;
      last_use_[idx] = next_stamp_++;
    }
    // Predicates differ between waiters; wake them all.
    cv_.notify_all();
  }

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<char> free_;
  std::vector<std::size_t> last_use_;
  std::size_t next_stamp_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
};

// --- transfers (counts in doubles) ----------------------------------------

/// Host→device copy of `count` doubles. Synchronous variants block the
/// host until the transfer completes; asynchronous variants only enqueue
/// (the data is staged eagerly — simulation detail).
void copy_h2d(Device& dev, Stream& s, DeviceBuffer& dst, std::size_t dst_off,
              const double* src, std::size_t count, bool async);
void copy_d2h(Device& dev, Stream& s, double* dst, const DeviceBuffer& src,
              std::size_t src_off, std::size_t count, bool async);

}  // namespace spchol::gpu
