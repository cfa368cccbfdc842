// Figure 9: sparsification metadata size with and without Elias-gamma
// compression on a short CIFAR-10-stand-in run.
//
// Without compression every shared coefficient carries a raw 4-byte index,
// so metadata is the same size as the (32-bit) parameter payload — ~50% of
// the bytes are "wasted". Elias gamma on the index gap array compressed the
// paper's metadata 9.9x.

#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace jwins;
  const bench::Flags flags(argc, argv);
  const std::size_t nodes = flags.get("nodes", std::size_t{16});
  const std::size_t rounds = flags.get("rounds", std::size_t{40});
  const std::size_t seed = flags.get("seed", std::size_t{1});
  const unsigned threads = bench::thread_flag(flags);

  std::cout << "=== Figure 9: metadata size without vs with Elias gamma ===\n\n";
  const sim::Workload w =
      sim::make_cifar_like(nodes, static_cast<std::uint32_t>(seed));

  auto run = [&](core::IndexEncoding encoding) {
    sim::ExperimentConfig cfg;
    cfg.algorithm = sim::Algorithm::kJwins;
    cfg.rounds = rounds;
    cfg.local_steps = 2;
    cfg.sgd.learning_rate = 0.05f;
    cfg.eval_every = rounds;
    cfg.eval_sample_limit = 64;
    cfg.eval_node_limit = 2;
    cfg.threads = threads;
    cfg.seed = seed;
    cfg.jwins.index_encoding = encoding;
    sim::Experiment experiment(
        cfg, w.model_factory, *w.train, w.partition, *w.test,
        bench::static_regular(nodes, bench::degree_for_nodes(nodes),
                              static_cast<unsigned>(seed)));
    return experiment.run();
  };

  const auto raw = run(core::IndexEncoding::kRaw);
  const auto elias = run(core::IndexEncoding::kEliasGamma);

  const auto raw_total = raw.total_traffic;
  const auto elias_total = elias.total_traffic;
  auto row = [](const char* label, const net::NodeTraffic& t) {
    std::cout << "  " << std::left << std::setw(26) << label
              << "model=" << std::setw(12)
              << sim::format_bytes(static_cast<double>(t.payload_bytes_sent))
              << "metadata=" << std::setw(12)
              << sim::format_bytes(static_cast<double>(t.metadata_bytes_sent))
              << "metadata share=" << std::fixed << std::setprecision(1)
              << 100.0 * static_cast<double>(t.metadata_bytes_sent) /
                     static_cast<double>(t.bytes_sent)
              << "%\n";
  };
  row("no metadata compression", raw_total);
  row("with Elias gamma", elias_total);
  const double ratio = static_cast<double>(raw_total.metadata_bytes_sent) /
                       static_cast<double>(elias_total.metadata_bytes_sent);
  std::cout << "\n  metadata compression ratio: " << std::setprecision(1)
            << ratio << "x (paper: 9.9x)\n";
  std::cout << "\npaper shape check: uncompressed metadata ~= model bytes "
               "(~50% of traffic); Elias gamma shrinks it by ~an order of "
               "magnitude\n";
  return 0;
}
