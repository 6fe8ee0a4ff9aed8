// HTTP(S) banner grab: GET / with no Host header (scans are address-based),
// optional TLS. Records status, Server header, and the page <title> that
// the device-type analysis groups (Section 4.3.1).
#include "proto/http.hpp"
#include "scan/probe_util.hpp"
#include "scan/tls.hpp"

namespace tts::scan {

namespace {

using detail::ProbeStatePtr;
using simnet::TcpConnection;

void record_http_response(const ProbeStatePtr& state,
                          std::span<const std::uint8_t> wire) {
  auto response = proto::HttpResponse::parse(wire);
  if (!response) {
    state->finish(Outcome::kMalformed);
    return;
  }
  state->record.http_status = response->status;
  state->record.http_server = response->server;
  auto title = proto::extract_title(response->body);
  state->record.http_has_title = title.has_value();
  state->record.http_title = title.value_or("");
  state->finish(Outcome::kSuccess);
}

class HttpScanner final : public ProtocolScanner {
 public:
  HttpScanner(bool tls, std::string sni)
      : tls_(tls), sni_(std::move(sni)) {}

  Protocol protocol() const override {
    return tls_ ? Protocol::kHttps : Protocol::kHttp;
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
            // Peer closed before we got a full response.
            if (!state->finished) state->finish(Outcome::kMalformed);
          });

          proto::HttpRequest request;
          request.host = sni;  // empty unless the campaign supplies names

          if (!tls) {
            conn->set_on_data(TcpConnection::Side::kClient,
                              [state](std::vector<std::uint8_t> data) {
                                record_http_response(state, data);
                              });
            conn->send(TcpConnection::Side::kClient, request.serialize());
            return;
          }

          auto session = TlsClientSession::create(conn, sni);
          session->set_on_app_data([state](std::vector<std::uint8_t> data) {
            record_http_response(state, data);
          });
          session->handshake([state, session,
                              request](TlsHandshakeResult result) {
            if (!result.ok) {
              state->finish(Outcome::kTlsFailed);
              return;
            }
            state->record.certificate = result.certificate;
            session->send(request.serialize());
          });
          state->record.http_status = 0;
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

std::unique_ptr<ProtocolScanner> make_http_scanner(bool tls,
                                                   std::string sni) {
  return std::make_unique<HttpScanner>(tls, std::move(sni));
}

}  // namespace tts::scan
