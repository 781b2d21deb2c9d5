// §5 future work, implemented: automatically extract an executable
// performance interface from a black-box accelerator by profiling and
// regime-aware fitting, then compare it against the vendor's hand-written
// Fig 2 interface.
#include <cstdio>

#include "src/accel/jpeg/decoder_sim.h"
#include "src/core/native_interfaces.h"
#include "src/core/program_interface.h"
#include "src/core/script_objects.h"
#include "src/extract/extractor.h"
#include "src/workload/image_gen.h"

int main() {
  using namespace perfiface;

  std::printf("=== Automatic interface extraction (paper §5) ===\n\n");

  // The black box: we can run it on workloads, nothing else.
  JpegDecoderTiming timing;
  timing.stall_probability = 0;
  JpegDecoderSim black_box(timing, /*seed=*/7);

  std::printf("profiling 220 images through the black box and fitting...\n\n");
  const ExtractedInterface extracted =
      ExtractJpegInterface(&black_box, GenerateImageCorpus(220, 13579));
  if (!extracted.ok) {
    std::printf("extraction failed (corpus did not span both regimes)\n");
    return 1;
  }

  std::printf("extracted interface program:\n%s\n", extracted.psc_source.c_str());
  std::printf("training error: avg %.2f%%, max %.2f%%\n\n", 100 * extracted.train_avg_error,
              100 * extracted.train_max_error);

  // Held-out comparison: extracted vs the vendor's hand-written Fig 2.
  ProgramInterface machine = ProgramInterface::FromSource(extracted.psc_source);
  machine.Compile();
  double machine_err = 0;
  double vendor_err = 0;
  std::size_t n = 0;
  for (const ImageWorkload& w : GenerateImageCorpus(60, 86420)) {
    const double actual = static_cast<double>(black_box.DecodeLatency(w.compressed));
    const JpegImageObject obj(&w.compressed);
    machine_err += std::abs(machine.Eval("latency_jpeg_decode", obj) - actual) / actual;
    vendor_err += std::abs(NativeJpegLatency(w.compressed) - actual) / actual;
    ++n;
  }
  std::printf("held-out average error (60 fresh images):\n");
  std::printf("  hand-written Fig 2 interface: %.2f%%\n",
              100 * vendor_err / static_cast<double>(n));
  std::printf("  auto-extracted interface:     %.2f%%\n",
              100 * machine_err / static_cast<double>(n));

  // The same workflow for the miner, where the law is exactly linear.
  const ExtractedInterface miner = ExtractMinerInterface({1, 2, 4, 8, 16, 32, 64});
  std::printf("\nminer extraction (latency law):\n%s", miner.psc_source.c_str());
  std::printf(
      "\nTakeaway: for accelerators whose cost is a low-dimensional function\n"
      "of the workload descriptor, black-box extraction recovers an interface\n"
      "as accurate as the vendor's — the path §5 proposes for scaling this.\n");
  return 0;
}
