#include "spchol/gpu/device.hpp"

#include <algorithm>
#include <cstring>

namespace spchol::gpu {

Device::Device(DeviceConfig cfg) : cfg_(cfg) {
  if (cfg_.compute_threads == 0) {
    cfg_.compute_threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
}

void Device::mem_acquire(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  if (mem_used_ + bytes > cfg_.memory_bytes) {
    throw DeviceOutOfMemory(bytes, mem_used_, cfg_.memory_bytes);
  }
  mem_used_ += bytes;
  mem_peak_ = std::max(mem_peak_, mem_used_);
}

void Device::mem_release(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  SPCHOL_CHECK(bytes <= mem_used_, "device memory accounting underflow");
  mem_used_ -= bytes;
}

std::size_t Device::mem_used() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return mem_used_;
}

std::size_t Device::mem_peak() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return mem_peak_;
}

void Device::track_stream(Stream* s) {
  std::lock_guard<std::mutex> lk(mu_);
  streams_.push_back(s);
  stats_.num_streams_created++;
}

void Device::untrack_stream(Stream* s) {
  std::lock_guard<std::mutex> lk(mu_);
  retired_tail_ = std::max(retired_tail_, s->tail_);
  streams_.erase(std::remove(streams_.begin(), streams_.end(), s),
                 streams_.end());
}

double Device::device_tail_locked() const {
  double tail = retired_tail_;
  for (const Stream* s : streams_) tail = std::max(tail, s->tail_);
  return tail;
}

double Device::enqueue(Stream& s, double dur, double flops) {
  std::lock_guard<std::mutex> lk(mu_);
  const double start = std::max(s.tail_, host_time_);
  double end = start + dur;
  if (flops > 0.0) {
    compute_free_ = std::max(compute_free_, start) +
                    flops / (cfg_.model.gpu_peak_gflops * 1e9);
    end = std::max(end, compute_free_);
  }
  // Cross-stream overlap: the part of [start, end) during which some other
  // stream still has enqueued work.
  double others = retired_tail_;
  for (const Stream* t : streams_) {
    if (t != &s) others = std::max(others, t->tail_);
  }
  if (others > start) stats_.overlap_seconds += std::min(end, others) - start;
  s.tail_ = end;
  return start;
}

double Device::host_time() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return host_time_;
}

void Device::advance_host(double seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  host_time_ += seconds;
}

void Device::wait_event(const Event& e) {
  std::lock_guard<std::mutex> lk(mu_);
  host_time_ = std::max(host_time_, e.time);
}

void Device::synchronize() {
  std::lock_guard<std::mutex> lk(mu_);
  host_time_ = std::max(host_time_, device_tail_locked());
}

double Device::makespan() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return std::max(host_time_, device_tail_locked());
}

DeviceStats Device::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t Device::num_live_streams() const {
  std::lock_guard<std::mutex> lk(mu_);
  return streams_.size();
}

void Device::note_h2d(std::size_t bytes, double seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.h2d_seconds += seconds;
  stats_.h2d_bytes += bytes;
  stats_.num_h2d++;
}

void Device::note_d2h(std::size_t bytes, double seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.d2h_seconds += seconds;
  stats_.d2h_bytes += bytes;
  stats_.num_d2h++;
}

void Device::note_kernel(double seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.kernel_seconds += seconds;
  stats_.num_kernels++;
}

ThreadPool& Device::compute_pool() { return ThreadPool::global(); }

Stream::Stream(Device& dev) : dev_(&dev) { dev.track_stream(this); }

Stream::~Stream() { dev_->untrack_stream(this); }

double Stream::tail() const noexcept {
  std::lock_guard<std::mutex> lk(dev_->mu_);
  return tail_;
}

void Stream::synchronize() {
  std::lock_guard<std::mutex> lk(dev_->mu_);
  dev_->host_time_ = std::max(dev_->host_time_, tail_);
}

Event Stream::record() const noexcept {
  std::lock_guard<std::mutex> lk(dev_->mu_);
  return {tail_};
}

void Stream::wait(const Event& e) noexcept {
  std::lock_guard<std::mutex> lk(dev_->mu_);
  tail_ = std::max(tail_, e.time);
}

DeviceBuffer::DeviceBuffer(Device& dev, std::size_t count)
    : dev_(&dev), count_(count) {
  dev.mem_acquire(count * sizeof(double));
  data_ = count > 0 ? new double[count] : nullptr;
}

DeviceBuffer::~DeviceBuffer() { release(); }

void DeviceBuffer::release() {
  if (dev_ != nullptr) {
    dev_->mem_release(count_ * sizeof(double));
    delete[] data_;
    dev_ = nullptr;
    data_ = nullptr;
    count_ = 0;
  }
}

DeviceBuffer::DeviceBuffer(DeviceBuffer&& o) noexcept
    : dev_(o.dev_), data_(o.data_), count_(o.count_) {
  o.dev_ = nullptr;
  o.data_ = nullptr;
  o.count_ = 0;
}

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& o) noexcept {
  if (this != &o) {
    release();
    dev_ = o.dev_;
    data_ = o.data_;
    count_ = o.count_;
    o.dev_ = nullptr;
    o.data_ = nullptr;
    o.count_ = 0;
  }
  return *this;
}

void copy_h2d(Device& dev, Stream& s, DeviceBuffer& dst, std::size_t dst_off,
              const double* src, std::size_t count, bool async) {
  SPCHOL_CHECK(dst_off + count <= dst.size(), "h2d copy out of range");
  const std::size_t bytes = count * sizeof(double);
  // Eager data movement (the simulation executes in program order).
  std::memcpy(dst.data() + dst_off, src, bytes);
  const double dur = dev.model().h2d_seconds(static_cast<double>(bytes));
  dev.advance_host(dev.model().issue_overhead);
  dev.enqueue(s, dur);
  dev.note_h2d(bytes, dur);
  if (!async) s.synchronize();
}

void copy_d2h(Device& dev, Stream& s, double* dst, const DeviceBuffer& src,
              std::size_t src_off, std::size_t count, bool async) {
  SPCHOL_CHECK(src_off + count <= src.size(), "d2h copy out of range");
  const std::size_t bytes = count * sizeof(double);
  std::memcpy(dst, src.data() + src_off, bytes);
  const double dur = dev.model().d2h_seconds(static_cast<double>(bytes));
  dev.advance_host(dev.model().issue_overhead);
  dev.enqueue(s, dur);
  dev.note_d2h(bytes, dur);
  if (!async) s.synchronize();
}

}  // namespace spchol::gpu
