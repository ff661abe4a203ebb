#include "cluster/cluster.h"

#include "common/strings.h"
#include "obs/metrics.h"

namespace sdps::cluster {

Cluster::Cluster(des::Simulator& sim, const ClusterConfig& config)
    : sim_(sim), config_(config) {
  SDPS_CHECK_GT(config_.workers, 0);
  if (config_.drivers < 0) config_.drivers = config_.workers;
  SDPS_CHECK_GT(config_.drivers, 0);

  NodeId next_id = 0;
  master_ = std::make_unique<Node>(sim_, next_id++, NodeGroup::kMaster, "master",
                                   config_.node);
  master_nic_ = MakeNic();
  for (int i = 0; i < config_.drivers; ++i) {
    drivers_.push_back(std::make_unique<Node>(
        sim_, next_id++, NodeGroup::kDriver, StrFormat("driver-%d", i), config_.node));
    driver_nics_.push_back(MakeNic());
  }
  for (int i = 0; i < config_.workers; ++i) {
    workers_.push_back(std::make_unique<Node>(
        sim_, next_id++, NodeGroup::kWorker, StrFormat("worker-%d", i), config_.node));
    worker_nics_.push_back(MakeNic());
  }
  trunk_ingest_ = std::make_unique<Link>(sim_, config_.trunk_bytes_per_sec,
                                         config_.link_latency_us);
  trunk_egress_ = std::make_unique<Link>(sim_, config_.trunk_bytes_per_sec,
                                         config_.link_latency_us);
}

Cluster::Nic Cluster::MakeNic() const {
  return Nic{
      std::make_unique<Link>(sim_, config_.nic_bytes_per_sec, config_.link_latency_us),
      std::make_unique<Link>(sim_, config_.nic_bytes_per_sec, config_.link_latency_us),
  };
}

const Cluster::Nic& Cluster::nic(const Node& node) const {
  switch (node.group()) {
    case NodeGroup::kMaster:
      return master_nic_;
    case NodeGroup::kDriver:
      return driver_nics_.at(static_cast<size_t>(node.id()) - 1);
    case NodeGroup::kWorker:
      return worker_nics_.at(static_cast<size_t>(node.id()) - 1 -
                             static_cast<size_t>(config_.drivers));
  }
  SDPS_CHECK(false) << "unreachable";
  return master_nic_;
}

Cluster::SendAwaiter Cluster::Send(Node& from, Node& to, int64_t bytes) {
  SendAwaiter send(*this, from, to, nullptr, 1, nullptr);
  send.one_ = bytes;
  return send;
}

Cluster::SendAwaiter Cluster::SendBatch(Node& from, Node& to, const int64_t* bytes,
                                        size_t n, SimTime* arrivals) {
  SDPS_CHECK(bytes != nullptr);
  return SendAwaiter(*this, from, to, bytes, n, arrivals);
}

Cluster::SendAwaiter::SendAwaiter(Cluster& cluster, Node& from, Node& to,
                                  const int64_t* bytes, size_t n, SimTime* arrivals)
    : cluster_(cluster), bytes_(bytes), n_(n), arrivals_(arrivals) {
  SDPS_CHECK_GT(n, 0u);
  if (from.id() == to.id()) return;  // in-process handoff: no hops
  hops_[num_hops_++] = cluster.nic(from).out.get();
  if (from.group() != to.group()) {
    hops_[num_hops_++] =
        (to.group() == NodeGroup::kWorker || to.group() == NodeGroup::kMaster)
            ? cluster.trunk_ingest_.get()
            : cluster.trunk_egress_.get();
  }
  hops_[num_hops_++] = cluster.nic(to).in.get();
}

bool Cluster::SendAwaiter::await_ready() {
  if (num_hops_ > 0) return false;
  if (arrivals_ != nullptr) {
    for (size_t i = 0; i < n_; ++i) arrivals_[i] = cluster_.sim_.now();
  }
  return true;
}

void Cluster::SendAwaiter::await_suspend(std::coroutine_handle<> caller) {
  static obs::Counter* net_transfers =
      obs::Registry::Default().GetCounter("cluster.net.transfers");
  static obs::Counter* net_bytes =
      obs::Registry::Default().GetCounter("cluster.net.bytes");
  static obs::Counter* trunk_bytes =
      obs::Registry::Default().GetCounter("cluster.net.trunk_bytes");
  int64_t total = 0;
  for (size_t i = 0; i < n_; ++i) total += payloads()[i];
  net_transfers->Add(n_);
  net_bytes->Add(static_cast<uint64_t>(total));
  if (num_hops_ == 3) trunk_bytes->Add(static_cast<uint64_t>(total));
  caller_ = caller;
  NextHop();
}

void Cluster::SendAwaiter::NextHop() {
  Link& link = *hops_[next_hop_];
  // Only the final hop's per-item completions are the arrival times.
  if (++next_hop_ == num_hops_) {
    cluster_.sim_.ScheduleResumeAt(link.Admit(payloads(), n_, arrivals_), caller_);
  } else {
    cluster_.sim_.ScheduleAt(link.Admit(payloads(), n_, nullptr), [this] { NextHop(); });
  }
}

int64_t Cluster::NodeNetworkBytes(const Node& node) const {
  const Nic& n = nic(node);
  return n.in->bytes_transferred() + n.out->bytes_transferred();
}

Node* Cluster::FindNode(const std::string& name) {
  if (name == "master") return master_.get();
  if (name.size() < 2) return nullptr;
  const char group = name[0];
  if (group != 'w' && group != 'd') return nullptr;
  int index = 0;
  for (size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return nullptr;
    index = index * 10 + (name[i] - '0');
  }
  if (group == 'w') {
    return index < num_workers() ? workers_[static_cast<size_t>(index)].get() : nullptr;
  }
  return index < num_drivers() ? drivers_[static_cast<size_t>(index)].get() : nullptr;
}

void Cluster::ScaleNodeNicRate(const Node& node, double scale) {
  const Nic& n = nic(node);
  n.in->set_rate_scale(scale);
  n.out->set_rate_scale(scale);
}

}  // namespace sdps::cluster
