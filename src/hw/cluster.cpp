#include "hw/cluster.hpp"

#include <algorithm>
#include <string>

namespace speedllm::hw {

Status InterconnectConfig::Validate() const {
  if (link_bytes_per_cycle == 0) {
    return InvalidArgument("interconnect link bandwidth must be positive");
  }
  return Status::Ok();
}

MultiCardConfig MultiCardConfig::Homogeneous(const U280Config& card,
                                             int num_cards) {
  MultiCardConfig config;
  if (num_cards > 0) {
    config.cards.assign(
        static_cast<std::size_t>(std::min(num_cards, kMaxCards + 1)), card);
  }
  return config;
}

Status MultiCardConfig::Validate() const {
  if (cards.empty()) {
    return InvalidArgument("cluster needs at least one card");
  }
  if (cards.size() > static_cast<std::size_t>(kMaxCards)) {
    return InvalidArgument("cluster has more than kMaxCards = " +
                           std::to_string(kMaxCards) + " cards");
  }
  const double clock = cards.front().clock_mhz;
  for (std::size_t i = 1; i < cards.size(); ++i) {
    if (cards[i].clock_mhz != clock) {
      return InvalidArgument(
          "cluster cards must share one kernel clock: card 0 runs at " +
          std::to_string(clock) + " MHz, card " + std::to_string(i) +
          " at " + std::to_string(cards[i].clock_mhz) + " MHz");
    }
  }
  return interconnect.Validate();
}

}  // namespace speedllm::hw
