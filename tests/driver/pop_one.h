// Record-at-a-time pull for the driver tests: DriverQueue::PopBatch with
// max = 1 (how an engine at --batch=1 pulls), shaped as an optional.
#ifndef SDPS_TESTS_DRIVER_POP_ONE_H_
#define SDPS_TESTS_DRIVER_POP_ONE_H_

#include <optional>

#include "des/task.h"
#include "driver/queue.h"
#include "engine/batch.h"
#include "engine/record.h"

namespace sdps::driver {

/// The next record, or nullopt once the queue is closed and drained.
inline des::Task<std::optional<engine::Record>> PopOne(DriverQueue& queue) {
  engine::RecordBatch batch;
  if (!co_await queue.PopBatch(&batch, 1)) co_return std::nullopt;
  co_return batch[0];
}

}  // namespace sdps::driver

#endif  // SDPS_TESTS_DRIVER_POP_ONE_H_
