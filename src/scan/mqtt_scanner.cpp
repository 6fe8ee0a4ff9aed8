// MQTT(S) access-control probe: CONNECT without credentials. CONNACK code 0
// means the broker is open; code 5 (not authorized) means access control is
// enforced — the distinction behind Figure 3.
#include "proto/mqtt.hpp"
#include "scan/probe_util.hpp"
#include "scan/tls.hpp"

namespace tts::scan {

namespace {

using detail::ProbeStatePtr;
using simnet::TcpConnection;

void record_connack(const ProbeStatePtr& state,
                    std::span<const std::uint8_t> wire) {
  auto ack = proto::MqttConnack::parse(wire);
  if (!ack) {
    state->finish(Outcome::kMalformed);
    return;
  }
  state->record.broker_auth_required =
      ack->code != proto::MqttConnectReturn::kAccepted;
  state->finish(Outcome::kSuccess);
}

class MqttScanner final : public ProtocolScanner {
 public:
  MqttScanner(bool tls, std::string sni) : tls_(tls), sni_(std::move(sni)) {}

  Protocol protocol() const override {
    return tls_ ? Protocol::kMqtts : Protocol::kMqtt;
  }

  void probe(simnet::Network& network, const simnet::Endpoint& src,
             ScanRecord base, DoneFn done) override {
    auto state = detail::make_probe_state(std::move(base), std::move(done));
    detail::arm_guard(network, state, probe_timeout_, probe_category_);

    simnet::Endpoint dst{state->record.target, port_of(protocol())};
    bool tls = tls_;
    std::string sni = sni_;
    network.connect_tcp(
        src, dst,
        [state, tls, sni](simnet::TcpConnectionPtr conn, bool refused) {
          if (!conn) {
            state->finish(refused ? Outcome::kRefused : Outcome::kTimeout);
            return;
          }
          state->conn = conn;
          conn->set_on_close(TcpConnection::Side::kClient, [state] {
            if (!state->finished) state->finish(Outcome::kMalformed);
          });

          proto::MqttConnect connect;  // anonymous: no username/password

          if (!tls) {
            conn->set_on_data(TcpConnection::Side::kClient,
                              [state](std::vector<std::uint8_t> data) {
                                record_connack(state, data);
                              });
            conn->send(TcpConnection::Side::kClient, connect.serialize());
            return;
          }

          auto session = TlsClientSession::create(conn, sni);
          session->set_on_app_data([state](std::vector<std::uint8_t> data) {
            record_connack(state, data);
          });
          session->handshake(
              [state, session, connect](TlsHandshakeResult result) {
                if (!result.ok) {
                  state->finish(Outcome::kTlsFailed);
                  return;
                }
                state->record.certificate = result.certificate;
                session->send(connect.serialize());
              });
          // Anchors the session to the probe AND breaks the closure
          // cycles (session callbacks capture state) at finish time.
          state->cleanup = [session] { session->drop_callbacks(); };
        },
        connect_timeout_);
  }

 private:
  bool tls_;
  std::string sni_;
};

}  // namespace

std::unique_ptr<ProtocolScanner> make_mqtt_scanner(bool tls,
                                                   std::string sni) {
  return std::make_unique<MqttScanner>(tls, std::move(sni));
}

}  // namespace tts::scan
