// CoAP probe (UDP): confirmable GET /.well-known/core; the link-format
// payload yields the advertised resources grouped in Section 4.3.3.
#include "proto/coap.hpp"
#include "scan/probe_util.hpp"

namespace tts::scan {

namespace {

using detail::ProbeStatePtr;

class CoapScanner final : public ProtocolScanner {
 public:
  Protocol protocol() const override { return Protocol::kCoap; }

  void probe(simnet::Network& network, const simnet::Endpoint& src,
             ScanRecord base, DoneFn done) override {
    auto state = detail::make_probe_state(std::move(base), std::move(done));

    simnet::Endpoint dst{state->record.target, port_of(Protocol::kCoap)};
    auto message_id = static_cast<std::uint16_t>(next_message_id_++);
    std::uint64_t token = 0x9e3779b9u ^ (message_id * 2654435761u);
    auto request = proto::CoapMessage::well_known_core(message_id, token);

    // Bind the ephemeral UDP port for the reply. The unbind is the probe's
    // cleanup hook, so every completion path — reply, guard timeout — runs
    // it through ProbeState::finish exactly like the TCP scanners release
    // their sessions.
    state->cleanup = [&network, src] { network.unbind_udp(src); };
    network.bind_udp(src, [state, message_id](const simnet::Datagram& dg) {
      auto response = proto::CoapMessage::parse(dg.payload);
      if (!response || response->message_id != message_id) {
        state->finish(Outcome::kMalformed);
        return;
      }
      if (response->code != proto::kCoapContent) {
        state->finish(Outcome::kMalformed);
        return;
      }
      std::string payload(response->payload.begin(),
                          response->payload.end());
      state->record.coap_resources = proto::parse_link_format(payload);
      state->finish(Outcome::kSuccess);
    });
    network.send_udp(src, dst, request.serialize());

    // UDP silence (no listener, lost packet, filtered) = timeout.
    detail::arm_guard(network, state, probe_timeout_, probe_category_);
  }

 private:
  std::uint32_t next_message_id_ = 1;
};

}  // namespace

std::unique_ptr<ProtocolScanner> make_coap_scanner() {
  return std::make_unique<CoapScanner>();
}

}  // namespace tts::scan
