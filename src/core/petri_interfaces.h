// Petri-net performance interfaces for the JPEG decoder and VTA (paper §3,
// Table 1): thin adapters that translate a workload into tokens, run the
// event-driven net, and read predictions off the sink place.
#ifndef SRC_CORE_PETRI_INTERFACES_H_
#define SRC_CORE_PETRI_INTERFACES_H_

#include <cstdint>
#include <string>

#include "src/accel/conv/conv_layer.h"
#include "src/accel/jpeg/codec.h"
#include "src/accel/protoacc/message.h"
#include "src/accel/vta/isa.h"
#include "src/common/types.h"
#include "src/core/pnet.h"

namespace perfiface {

struct PetriPrediction {
  Cycles latency = 0;
  double throughput = 0;
  std::uint64_t firings = 0;  // events processed — the cost of prediction
};

class JpegPetriInterface {
 public:
  // Loads the net from a .pnet file; aborts on parse errors.
  explicit JpegPetriInterface(const std::string& pnet_path, std::size_t blocks_per_stripe = 8);

  Cycles PredictLatency(const CompressedImage& image) const;
  // Streaming throughput in images/cycle (same protocol as the simulator's
  // Measure: back-to-back copies, fill excluded).
  double PredictThroughput(const CompressedImage& image, std::size_t copies = 4) const;

  PetriPrediction Predict(const CompressedImage& image, std::size_t copies = 4) const;

  const PetriNet& net() const { return *loaded_.net; }

 private:
  LoadedNet loaded_;
  std::size_t blocks_per_stripe_;
  PlaceId hdr_in_ = 0;
  PlaceId vld_in_ = 0;
  PlaceId done_ = 0;
  std::size_t attr_bits_ = 0;
  std::size_t attr_blocks_ = 0;
};

// Petri-net interface for the Protoacc serializer: unlike the Fig 3
// program (bounds only), the net's structural read/write overlap yields a
// point latency estimate.
class ProtoaccPetriInterface {
 public:
  explicit ProtoaccPetriInterface(const std::string& pnet_path, Cycles output_flush = 8);

  Cycles PredictLatency(const MessageInstance& msg) const;

  const PetriNet& net() const { return *loaded_.net; }

 private:
  LoadedNet loaded_;
  Cycles output_flush_;
  PlaceId node_q_ = 0;
  PlaceId msg_q_ = 0;
  PlaceId read_done_ = 0;
  PlaceId write_done_ = 0;
  std::size_t attr_groups_ = 0;
  std::size_t attr_first_ = 0;
  std::size_t attr_writes_ = 0;
};

class VtaPetriInterface {
 public:
  explicit VtaPetriInterface(const std::string& pnet_path, Cycles finish_cost = 4);

  Cycles PredictLatency(const VtaProgram& program) const;
  // Instructions/cycle over back-to-back copies (same protocol as VtaSim).
  double PredictThroughput(const VtaProgram& program, std::size_t copies = 3) const;

  PetriPrediction Predict(const VtaProgram& program, std::size_t copies = 3) const;

  const PetriNet& net() const { return *loaded_.net; }

 private:
  void InjectProgram(const VtaProgram& program, std::size_t copies, class PetriSim* sim) const;

  LoadedNet loaded_;
  Cycles finish_cost_;
  PlaceId prog_ = 0;
  PlaceId done_ = 0;
  std::size_t attr_op_ = 0;
  std::size_t attr_words_ = 0;
  std::size_t attr_uops_ = 0;
  std::size_t attr_iters_ = 0;
  std::size_t attr_push_next_ = 0;
};

// Petri-net interface for the conv engine: injects the lowered command
// stream as tokens and reads completion off the store-side sink place.
class ConvPetriInterface {
 public:
  explicit ConvPetriInterface(const std::string& pnet_path, Cycles finish_cost = 4);

  Cycles PredictLatency(const ConvProgram& program) const;
  // Commands/cycle over back-to-back copies (same protocol as ConvSim).
  double PredictThroughput(const ConvProgram& program, std::size_t copies = 3) const;

  PetriPrediction Predict(const ConvProgram& program, std::size_t copies = 3) const;

  const PetriNet& net() const { return *loaded_.net; }

 private:
  void InjectProgram(const ConvProgram& program, std::size_t copies, class PetriSim* sim) const;

  LoadedNet loaded_;
  Cycles finish_cost_;
  PlaceId prog_ = 0;
  PlaceId done_ = 0;
  std::size_t attr_op_ = 0;
  std::size_t attr_words_ = 0;
  std::size_t attr_groups_ = 0;
  std::size_t attr_pop_w_ = 0;
};

}  // namespace perfiface

#endif  // SRC_CORE_PETRI_INTERFACES_H_
