// Client network link model: 10 Gbit Ethernet (Table 1).
//
// Models the client machine's NIC as separate transmit and receive queues
// with a fixed round-trip latency. Transfers to the backend serialize on the
// single client link, which is what makes the single client machine the
// bottleneck at high LSVD IOPS (paper §4.5).
#ifndef SRC_SIM_NET_LINK_H_
#define SRC_SIM_NET_LINK_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "src/sim/server_queue.h"
#include "src/sim/simulator.h"
#include "src/util/units.h"

namespace lsvd {

struct NetParams {
  double bandwidth_bps = 1.25e9;     // 10 Gbit
  Nanos rtt = 200 * kMicrosecond;    // LAN round trip
};

class NetLink {
 public:
  NetLink(Simulator* sim, NetParams params)
      : sim_(sim), params_(params), tx_(sim, 1), rx_(sim, 1) {}

  Nanos rtt() const { return params_.rtt; }
  Nanos half_rtt() const { return params_.rtt / 2; }

  // Client -> backend transfer of `bytes`; `done` fires when the last byte
  // leaves the link (propagation added by callers via half_rtt()).
  void SendToBackend(uint64_t bytes, std::function<void()> done) {
    sent_ += bytes;
    tx_.Submit(TransferTime(bytes), std::move(done));
  }

  // Backend -> client transfer.
  void ReceiveFromBackend(uint64_t bytes, std::function<void()> done) {
    received_ += bytes;
    rx_.Submit(TransferTime(bytes), std::move(done));
  }

  uint64_t bytes_sent() const { return sent_; }
  uint64_t bytes_received() const { return received_; }

  Nanos TransferTime(uint64_t bytes) const {
    return static_cast<Nanos>(static_cast<double>(bytes) /
                              params_.bandwidth_bps * 1e9);
  }

 private:
  Simulator* sim_;
  NetParams params_;
  ServerQueue tx_;
  ServerQueue rx_;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
};

}  // namespace lsvd

#endif  // SRC_SIM_NET_LINK_H_
