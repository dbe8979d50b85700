// pim_serverd: standalone networked PIM service.
//
// Binds a pim_server on loopback (or a given host) and serves the
// wire protocol until SIGINT/SIGTERM. Out-of-process clients connect
// with net::remote_client (see examples/net_quickstart.cpp) or any
// implementation of the framing in src/net/protocol.h.
//
// Usage (key=value arguments, common/config.h conventions):
//   pim_serverd port=7321 shards=4
//   pim_serverd port=0 port_file=port.txt    # ephemeral port, written
//                                            # to the file once bound
//                                            # (how the CI smoke test
//                                            # rendezvouses)
// Keys: host, port (0-65535), port_file, shards (>= 1),
//       routing (hash|range),
//       sessions_per_shard, queue (per-session admission bound),
//       trace (path: enable tracing at startup, write Chrome trace
//       JSON there on shutdown; clients can also toggle the tracer
//       at runtime with the trace_ctl wire op).
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>

#include "common/config.h"
#include "net/server.h"
#include "obs/trace.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace pim;

  config cfg;
  net::server_config server_cfg;
  try {
    cfg = config::from_args({argv + 1, argv + argc});
    server_cfg.host = cfg.get_string("host", "127.0.0.1");
    const std::int64_t port = cfg.get_int("port", 7321);
    if (port < 0 || port > 65535) {
      throw std::invalid_argument("port must be in [0, 65535], got " +
                                  std::to_string(port));
    }
    server_cfg.port = static_cast<std::uint16_t>(port);
    const std::int64_t shards = cfg.get_int("shards", 4);
    if (shards < 1 || shards > std::numeric_limits<int>::max()) {
      throw std::invalid_argument("shards must be a positive int, got " +
                                  std::to_string(shards));
    }
    server_cfg.service.shards = static_cast<int>(shards);
    const std::string routing = cfg.get_string("routing", "hash");
    if (routing != "hash" && routing != "range") {
      throw std::invalid_argument("routing must be hash or range, got '" +
                                  routing + "'");
    }
    server_cfg.service.routing = routing == "range"
                                     ? service::shard_routing::range
                                     : service::shard_routing::hash;
    server_cfg.service.sessions_per_shard =
        static_cast<std::uint64_t>(cfg.get_int("sessions_per_shard", 64));
    server_cfg.service.shard.session_queue_capacity =
        static_cast<std::size_t>(cfg.get_int("queue", 64));
  } catch (const std::exception& e) {
    std::cerr << "pim_serverd: " << e.what() << "\n";
    return 2;
  }

  const std::string trace_path = cfg.get_string("trace", "");
  if (!trace_path.empty()) obs::tracer::instance().enable();

  net::pim_server server(server_cfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "pim_serverd: " << e.what() << "\n";
    return 1;
  }

  const std::string port_file = cfg.get_string("port_file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
  }
  std::cout << "pim_serverd: listening on " << server_cfg.host << ":"
            << server.port() << " (" << server_cfg.service.shards
            << " shards)\n"
            << std::flush;

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "pim_serverd: shutting down\n";
  server.stop();
  if (!trace_path.empty()) {
    try {
      obs::tracer::instance().write_chrome_json(trace_path);
      std::cout << "pim_serverd: trace written to " << trace_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "pim_serverd: trace dump failed: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}
