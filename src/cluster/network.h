// Bandwidth-limited network model. Each node owns a full-duplex NIC
// (independent in/out links); traffic between the driver group and the
// worker group additionally crosses a shared inter-rack trunk. The trunk
// reproduces the paper's fixed network ceiling (Flink saturates at
// ~1.2 M tuples/s regardless of worker count, Table I / Table III).
#ifndef SDPS_CLUSTER_NETWORK_H_
#define SDPS_CLUSTER_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/time_util.h"
#include "des/simulator.h"

namespace sdps::cluster {

/// A unidirectional store-and-forward pipe: transmissions serialize FIFO at
/// `bytes_per_sec`, then incur a fixed propagation `latency`.
///
/// The line is a single-server FIFO queue kept as one number, the time it
/// next falls idle. A transfer admitted at now() with transmission time tx
/// starts at max(now(), busy_until), holds the line until start + tx and
/// arrives latency later. tx is fixed at admission, so each arrival time
/// is known when the transfer is admitted: a hop is one DES event (the
/// caller's resumption) and no coroutine frame. Arrival times equal those
/// of a one-server FIFO des::Resource followed by a des::Delay of
/// `latency` (the reference model in tests/cluster/network_test.cc). The
/// resumption is scheduled at admission, so it takes its tie-break order
/// among same-microsecond events from its admission.
class Link {
 public:
  Link(des::Simulator& sim, double bytes_per_sec, SimTime latency)
      : sim_(sim), bytes_per_sec_(bytes_per_sec), latency_(latency) {
    SDPS_CHECK_GT(bytes_per_sec, 0.0);
    SDPS_CHECK_GE(latency, 0);
  }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Occupies the line for bytes/bandwidth, then waits the propagation
  /// delay. Concurrent transfers queue FIFO. The line is claimed when this
  /// is called; `co_await` the result at once.
  [[nodiscard]] des::Delay Transfer(int64_t bytes);

  /// Transfers a back-to-back run of payloads as ONE admission and one
  /// event (see Admit). The caller resumes at the LAST item's arrival.
  [[nodiscard]] des::Delay TransferBatch(const int64_t* bytes, size_t n,
                                         SimTime* completions);

  /// Queues a back-to-back run of payloads on the line now and returns the
  /// LAST item's arrival time; schedules nothing. Per-item transmission
  /// times use one FP expression whatever n is; item i finishes the line
  /// at service_start + tx[0] + ... + tx[i] and arrives latency() later —
  /// exactly the schedule `n` serial Transfer() calls produce on this
  /// store-and-forward FIFO line (each would queue behind the previous).
  /// When `completions` is non-null it receives the n absolute arrival
  /// times. Transfer and TransferBatch are this plus one resumption;
  /// Cluster's hop chain (cluster.h) schedules its own.
  SimTime Admit(const int64_t* bytes, size_t n, SimTime* completions);

  /// Cumulative payload bytes whose transmission has completed by now().
  int64_t bytes_transferred() const;

  double bytes_per_sec() const { return bytes_per_sec_; }

  /// Chaos injection: scales the effective transmission rate (1.0 =
  /// nominal). Applies to transfers admitted after the call; transfers
  /// already queued or on the line keep the rate they were admitted with,
  /// matching the store-and-forward model.
  void set_rate_scale(double scale) {
    SDPS_CHECK_GT(scale, 0.0);
    rate_scale_ = scale;
  }
  double rate_scale() const { return rate_scale_; }

 private:
  /// A transmission admitted to the line but not yet counted in
  /// bytes_done_. `done` is non-decreasing along in_flight_ (FIFO line).
  struct InFlight {
    SimTime done;
    int64_t bytes;
  };

  SimTime TxTime(int64_t bytes) const;
  /// Queues a transmission of `tx` us carrying `bytes` behind the line's
  /// current work and returns the time it leaves the line.
  SimTime Occupy(SimTime tx, int64_t bytes);

  des::Simulator& sim_;
  double bytes_per_sec_;
  double rate_scale_ = 1.0;
  SimTime latency_;
  SimTime busy_until_ = 0;
  int64_t bytes_done_ = 0;
  // Folded into bytes_done_ on each admission; entries before head_ are
  // already counted. Empty until the first transfer, so an idle link
  // never allocates.
  std::vector<InFlight> in_flight_;
  size_t head_ = 0;
};

}  // namespace sdps::cluster

#endif  // SDPS_CLUSTER_NETWORK_H_
