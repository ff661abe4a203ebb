// Record batches: the unit moved through the batched data plane, plus the
// process-wide default batch size (the `--batch=N` knob).
//
// A RecordBatch is a run of records that entered the data plane together:
// the generator emits one burst per wakeup, DriverQueue::PopBatch hands a
// source up to `batch` queued records per resume, and the FIFO resources
// admit the whole run with one DES event: a worker CPU
// (des::Resource::UseBatch) schedules one completion, a cluster::Link hop
// one resumption at the run's arrival. Per-record event-times, lineage
// stamps, metering, and window mutations are all preserved — batching
// coalesces *scheduling*, not semantics. Every batch size runs the same
// engine code; `--batch=1` is the record-at-a-time pull of the paper's
// measurements, where each batch holds one record.
#ifndef SDPS_ENGINE_BATCH_H_
#define SDPS_ENGINE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "engine/record.h"

namespace sdps::engine {

/// A run of records moving through the data plane together. Records are
/// stored contiguously (they are small, trivially copyable structs, so a
/// flat vector is already the SoA-friendly layout for every per-field
/// sweep the engines do: WireBytes sums, cost vectors, key partitioning).
/// The inline capacity covers the common batch sizes without touching the
/// allocator; larger bursts spill to the heap transparently.
class RecordBatch {
 public:
  RecordBatch() { records_.reserve(kInlineCapacity); }
  /// Reserves `capacity` records instead (0: allocate on first push) —
  /// for long-lived scratch batches whose size bound is known.
  explicit RecordBatch(size_t capacity) { records_.reserve(capacity); }

  void Reserve(size_t n) { records_.reserve(n); }
  void Clear() {
    records_.clear();
    sums_valid_ = false;
  }
  void PushBack(const Record& rec) {
    records_.push_back(rec);
    sums_valid_ = false;
  }
  void PushBack(Record&& rec) {
    records_.push_back(rec);
    sums_valid_ = false;
  }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  /// Mutable access may change weights/preagg, so it drops the cached
  /// sums; use the const overloads on sealed batches to keep them.
  Record& operator[](size_t i) {
    sums_valid_ = false;
    return records_[i];
  }
  const Record& operator[](size_t i) const { return records_[i]; }
  Record* begin() {
    sums_valid_ = false;
    return records_.data();
  }
  Record* end() { return records_.data() + records_.size(); }
  const Record* begin() const { return records_.data(); }
  const Record* end() const { return records_.data() + records_.size(); }

  /// Computes and memoizes the weight/wire sums. Call when the batch
  /// stops mutating (queue burst creation, shuffle flush); the cached
  /// sums travel with the batch through moves so every later admission
  /// site reads them instead of re-summing. Mutation invalidates.
  void Seal() const { ComputeSums(); }
  bool sealed() const { return sums_valid_; }

  /// Summed logical tuples (records are weight-scaled).
  uint64_t TotalWeight() const {
    if (!sums_valid_) ComputeSums();
    return cached_weight_;
  }

  /// Summed wire size of the run (physical tuples: combiner partials
  /// count once).
  int64_t TotalWireBytes() const {
    if (!sums_valid_) ComputeSums();
    return cached_wire_bytes_;
  }

  static constexpr size_t kInlineCapacity = 64;

 private:
  void ComputeSums() const {
    uint64_t weight = 0;
    int64_t wire = 0;
    for (const Record& r : records_) {
      weight += static_cast<uint64_t>(r.weight);
      wire += WireBytes(r);
    }
    cached_weight_ = weight;
    cached_wire_bytes_ = wire;
    sums_valid_ = true;
  }

  std::vector<Record> records_;
  // Memoized sums: logically derived state, so mutable + const compute.
  mutable uint64_t cached_weight_ = 0;
  mutable int64_t cached_wire_bytes_ = 0;
  mutable bool sums_valid_ = false;
};

/// Wire sizes of a batch's remote records grouped per target worker index,
/// in the order the workers first appear. The per-worker lists keep their
/// capacity across batches, so regrouping allocates nothing once warm.
class RemoteGroups {
 public:
  void Clear() {
    for (const int w : order_) bytes_[static_cast<size_t>(w)].clear();
    order_.clear();
  }
  void Add(int worker, int64_t wire_bytes) {
    const size_t w = static_cast<size_t>(worker);
    if (w >= bytes_.size()) bytes_.resize(w + 1);
    if (bytes_[w].empty()) order_.push_back(worker);
    bytes_[w].push_back(wire_bytes);
  }

  /// Workers with at least one record, first-appearance order.
  const std::vector<int>& workers() const { return order_; }
  const std::vector<int64_t>& bytes(int worker) const {
    return bytes_[static_cast<size_t>(worker)];
  }

 private:
  std::vector<std::vector<int64_t>> bytes_;  // per worker index
  std::vector<int> order_;
};

/// Process-wide data-plane batch size, set from `--batch=N` before any
/// trial runs (bench::TelemetryScope consumes the flag) and read by
/// driver::RunExperiment when ExperimentConfig::batch is 0. The default
/// is 1: one record per pop, link and CPU admission (the paper's setup).
int DefaultDataPlaneBatch();
void SetDefaultDataPlaneBatch(int batch);

}  // namespace sdps::engine

#endif  // SDPS_ENGINE_BATCH_H_
