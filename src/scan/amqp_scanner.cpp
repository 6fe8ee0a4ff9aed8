// AMQP(S) access-control probe: protocol header, then Start-Ok with the
// default guest credentials. Tune back = broker open; Close 403 = access
// control enforced (Figure 3's AMQP panel).
#include "proto/amqp.hpp"
#include "scan/probe_util.hpp"
#include "scan/tls.hpp"

namespace tts::scan {

namespace {

using detail::ProbeStatePtr;
using simnet::TcpConnection;

class AmqpScanner final : public ProtocolScanner {
 public:
  AmqpScanner(bool tls, std::string sni) : tls_(tls), sni_(std::move(sni)) {}

  Protocol protocol() const override {
    return tls_ ? Protocol::kAmqps : Protocol::kAmqp;
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

          // The send path differs for TLS vs plain; unify behind lambdas.
          auto on_frame = [state](std::span<const std::uint8_t> wire,
                                  auto send_fn) {
            auto frame = proto::AmqpFrame::parse(wire);
            if (!frame) {
              state->finish(Outcome::kMalformed);
              return;
            }
            switch (frame->method) {
              case proto::AmqpMethod::kStart: {
                proto::AmqpFrame start_ok;
                start_ok.method = proto::AmqpMethod::kStartOk;
                start_ok.text = "PLAIN guest guest";
                send_fn(start_ok.serialize());
                return;
              }
              case proto::AmqpMethod::kTune:
                state->record.broker_auth_required = false;
                state->finish(Outcome::kSuccess);
                return;
              case proto::AmqpMethod::kClose:
                state->record.broker_auth_required =
                    frame->close_code == 403;
                state->finish(Outcome::kSuccess);
                return;
              default:
                state->finish(Outcome::kMalformed);
                return;
            }
          };

          if (!tls) {
            auto send_plain = [conn](std::vector<std::uint8_t> wire) {
              conn->send(TcpConnection::Side::kClient, std::move(wire));
            };
            conn->set_on_data(TcpConnection::Side::kClient,
                              [on_frame, send_plain](
                                  std::vector<std::uint8_t> data) {
                                on_frame(data, send_plain);
                              });
            send_plain(proto::amqp_protocol_header());
            return;
          }

          auto session = TlsClientSession::create(conn, sni);
          auto send_tls = [session](std::vector<std::uint8_t> wire) {
            session->send(std::move(wire));
          };
          session->set_on_app_data(
              [on_frame, send_tls](std::vector<std::uint8_t> data) {
                on_frame(data, send_tls);
              });
          session->handshake(
              [state, session, send_tls](TlsHandshakeResult result) {
                if (!result.ok) {
                  state->finish(Outcome::kTlsFailed);
                  return;
                }
                state->record.certificate = result.certificate;
                send_tls(proto::amqp_protocol_header());
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

std::unique_ptr<ProtocolScanner> make_amqp_scanner(bool tls,
                                                   std::string sni) {
  return std::make_unique<AmqpScanner>(tls, std::move(sni));
}

}  // namespace tts::scan
