// Property-based suites (parameterized gtest): each TEST_P states an
// invariant and sweeps it over seeded random instances.
#include <gtest/gtest.h>

#include <numeric>

#include "src/accel/bitcoin/sha256.h"
#include "src/accel/jpeg/codec.h"
#include "src/accel/jpeg/decoder_sim.h"
#include "src/accel/protoacc/serializer_sim.h"
#include "src/accel/protoacc/wire.h"
#include "src/accel/vta/vta_sim.h"
#include "src/common/rng.h"
#include "src/common/small_vec.h"
#include "src/core/native_interfaces.h"
#include "src/core/petri_interfaces.h"
#include "src/core/registry.h"
#include "src/core/script_objects.h"
#include "src/petri/sim.h"
#include "src/sim/pipeline_model.h"
#include "src/workload/image_gen.h"
#include "src/workload/message_gen.h"
#include "src/workload/vta_gen.h"
#include "tests/net_builder.h"

namespace perfiface {
namespace {

// ---------------------------------------------------------------------------
// Petri engine == pipeline recurrence, over random stage costs/capacities.
// ---------------------------------------------------------------------------

class PipelineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineEquivalence, PetriMatchesRecurrenceExactly) {
  SplitMix64 rng(GetParam());
  const std::size_t stages = 2 + rng.NextBelow(4);        // 2..5 stages
  const std::size_t items = 5 + rng.NextBelow(40);        // 5..44 items
  std::vector<std::size_t> caps;
  for (std::size_t s = 0; s + 1 < stages; ++s) {
    caps.push_back(1 + rng.NextBelow(4));
  }
  std::vector<std::vector<Cycles>> costs(stages, std::vector<Cycles>(items));
  for (auto& stage : costs) {
    for (auto& c : stage) {
      c = 1 + rng.NextBelow(200);
    }
  }
  const PipelineModel model(costs, caps);

  // Names are appended, not joined with operator+: GCC 12's -Wrestrict
  // misfires on operator+ into a temporary in optimized builds.
  const auto name = [](char prefix, std::size_t s) {
    std::string out(1, prefix);
    out += std::to_string(s);
    return out;
  };
  PetriNet net;
  for (std::size_t s = 0; s < stages; ++s) {
    net.RegisterAttr(name('c', s));
  }
  std::vector<PlaceId> places;
  places.push_back(net.AddPlace("in"));
  for (std::size_t s = 0; s + 1 < stages; ++s) {
    places.push_back(net.AddPlace(name('f', s), caps[s]));
  }
  places.push_back(net.AddPlace("out"));
  for (std::size_t s = 0; s < stages; ++s) {
    net.AddTransition(testing::ExprTransition(net, name('s', s), {{places[s], 1}},
                                              {{places[s + 1], 1}}, name('c', s)));
  }

  PetriSim sim(&net);
  sim.Observe(places.back());
  for (std::size_t i = 0; i < items; ++i) {
    Token t;
    t.attrs.assign(stages, 0);
    for (std::size_t s = 0; s < stages; ++s) {
      t.attrs[s] = static_cast<double>(costs[s][i]);
    }
    sim.Inject(places.front(), t);
  }
  ASSERT_TRUE(sim.Run(1ULL << 40));
  for (std::size_t i = 0; i < items; ++i) {
    ASSERT_EQ(sim.arrivals(places.back())[i].time, model.FinishTime(stages - 1, i))
        << "seed " << GetParam() << " item " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPipelines, PipelineEquivalence,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// Protoacc: Fig 3 latency bounds hold for arbitrary random messages.
// ---------------------------------------------------------------------------

class ProtoaccBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtoaccBounds, LatencyAlwaysWithinInterfaceBounds) {
  ProtoaccSim sim(ProtoaccTiming{}, ProtoaccSim::RecommendedMemoryConfig(), GetParam());
  MessageShape shape;
  shape.max_depth = 1 + GetParam() % 4;
  shape.max_fields = 4 + (GetParam() * 7) % 60;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const MessageInstance msg = GenerateMessage(shape, DeriveSeed(GetParam(), i));
    const ProtoaccMeasurement m = sim.Measure(msg);
    EXPECT_GE(static_cast<double>(m.latency), NativeProtoaccMinLatency(msg, 60));
    EXPECT_LE(static_cast<double>(m.latency), NativeProtoaccMaxLatency(msg, 60));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMessages, ProtoaccBounds,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Wire format: encode/size/decode agree for arbitrary messages.
// ---------------------------------------------------------------------------

class WireRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireRoundTrip, SizeMatchesAndDecodes) {
  MessageShape shape;
  shape.max_depth = 1 + GetParam() % 5;
  shape.string_fraction = 0.1 * static_cast<double>(GetParam() % 10);
  const MessageInstance msg = GenerateMessage(shape, GetParam() * 31);
  const std::vector<std::uint8_t> wire = SerializeMessage(msg);
  EXPECT_EQ(wire.size(), SerializedSize(msg));
  std::vector<DecodedField> fields;
  ASSERT_TRUE(DecodeTopLevelFields(wire, &fields));
  EXPECT_EQ(fields.size(), msg.num_fields());
  EXPECT_EQ(NumWrites(msg), (wire.size() + 15) / 16);
}

INSTANTIATE_TEST_SUITE_P(RandomWire, WireRoundTrip, ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------------
// SHA-256: incremental updates equal one-shot for arbitrary chunkings.
// ---------------------------------------------------------------------------

class ShaChunking : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShaChunking, ChunkedUpdateMatchesOneShot) {
  SplitMix64 rng(GetParam());
  std::vector<std::uint8_t> data(rng.NextBelow(512) + 1);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  Sha256 chunked;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t n = std::min<std::size_t>(rng.NextBelow(97) + 1, data.size() - pos);
    chunked.Update(std::span<const std::uint8_t>(data.data() + pos, n));
    pos += n;
  }
  EXPECT_EQ(DigestToHex(chunked.Finalize()), DigestToHex(Sha256::Hash(data)));
}

INSTANTIATE_TEST_SUITE_P(RandomChunkings, ShaChunking, ::testing::Range<std::uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// JPEG codec: quality monotonicity and reconstruction sanity per content
// class.
// ---------------------------------------------------------------------------

class JpegCodecProperty : public ::testing::TestWithParam<int> {};

TEST_P(JpegCodecProperty, BitsMonotoneInQualityAndPsnrReasonable) {
  const auto cls = static_cast<ImageClass>(GetParam());
  const RawImage img = GenerateImage(cls, 64, 64, 99);
  std::uint64_t prev_bits = 0;
  for (int quality : {20, 50, 80, 95}) {
    const CompressedImage c = Encode(img, quality);
    EXPECT_GE(c.total_coded_bits(), prev_bits) << "quality " << quality;
    prev_bits = c.total_coded_bits();
    EXPECT_GT(Psnr(img, Decode(c)), 18.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, JpegCodecProperty, ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// JPEG decoder: latency additivity-ish — streaming N copies costs no more
// than N isolated decodes (pipelining can only help).
// ---------------------------------------------------------------------------

class JpegStreaming : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JpegStreaming, ThroughputAtLeastIsolatedRate) {
  JpegDecoderSim sim(JpegDecoderTiming{}, 5);
  const auto corpus = GenerateImageCorpus(1, GetParam());
  const JpegDecodeMeasurement m = sim.Measure(corpus[0].compressed, /*copies=*/5);
  const double isolated_rate = 1.0 / static_cast<double>(m.latency);
  EXPECT_GE(m.throughput, isolated_rate * 0.999);
}

INSTANTIATE_TEST_SUITE_P(RandomImages, JpegStreaming, ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// VTA: the Petri net tracks the simulator for every corpus shape class.
// ---------------------------------------------------------------------------

struct VtaShapeCase {
  const char* name;
  VtaProgramShape shape;
  double max_avg_error;
};

class VtaPetriByShape : public ::testing::TestWithParam<int> {
 public:
  static VtaShapeCase Case(int index) {
    VtaShapeCase cases[3] = {};
    cases[0].name = "compute_bound";
    cases[0].shape.min_gemm_uops = 64;
    cases[0].shape.max_gemm_uops = 128;
    cases[0].shape.min_gemm_iters = 48;
    cases[0].shape.max_gemm_iters = 96;
    cases[0].max_avg_error = 0.02;
    cases[1].name = "dma_bound";
    cases[1].shape.min_dma_words = 128;
    cases[1].shape.max_dma_words = 384;
    cases[1].shape.max_gemm_uops = 16;
    cases[1].shape.max_gemm_iters = 12;
    cases[1].max_avg_error = 0.08;
    cases[2].name = "small";
    cases[2].shape.min_steps = 2;
    cases[2].shape.max_steps = 5;
    cases[2].max_avg_error = 0.08;
    return cases[index];
  }
};

TEST_P(VtaPetriByShape, AverageErrorWithinClassBudget) {
  const VtaShapeCase c = Case(GetParam());
  VtaSim sim(VtaTiming{}, VtaSim::RecommendedMemoryConfig(), 5);
  VtaPetriInterface iface(InterfaceRegistry::Default().Get("vta").pnet_path);
  double sum = 0;
  const int kPrograms = 12;
  for (int i = 0; i < kPrograms; ++i) {
    const VtaProgram p = GenerateVtaProgram(c.shape, DeriveSeed(4242, static_cast<std::uint64_t>(i)));
    const double actual = static_cast<double>(sim.RunLatency(p));
    const double predicted = static_cast<double>(iface.PredictLatency(p));
    sum += std::abs(predicted - actual) / actual;
  }
  EXPECT_LT(sum / kPrograms, c.max_avg_error) << c.name;
}

INSTANTIATE_TEST_SUITE_P(ShapeClasses, VtaPetriByShape, ::testing::Range(0, 3));

// ---------------------------------------------------------------------------
// SmallVec behaves like std::vector for a random operation tape.
// ---------------------------------------------------------------------------

class SmallVecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmallVecProperty, MatchesReferenceVector) {
  SplitMix64 rng(GetParam());
  SmallVec<double, 4> small;
  std::vector<double> reference;
  for (int op = 0; op < 200; ++op) {
    switch (rng.NextBelow(3)) {
      case 0: {
        const double v = rng.NextDouble();
        small.push_back(v);
        reference.push_back(v);
        break;
      }
      case 1: {
        const std::size_t n = rng.NextBelow(12);
        const double v = rng.NextDouble();
        small.assign(n, v);
        reference.assign(n, v);
        break;
      }
      default: {
        if (!reference.empty()) {
          const std::size_t i = rng.NextBelow(reference.size());
          const double v = rng.NextDouble();
          small[i] = v;
          reference[i] = v;
        }
        break;
      }
    }
    ASSERT_EQ(small.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(small[i], reference[i]);
    }
  }
  // Copy and move preserve contents across the inline/heap boundary.
  SmallVec<double, 4> copy = small;
  ASSERT_EQ(copy.size(), reference.size());
  SmallVec<double, 4> moved = std::move(copy);
  ASSERT_EQ(moved.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(moved[i], reference[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTapes, SmallVecProperty, ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// Interpreter vs native mirrors over random workloads (Fig 2/3 semantics).
// ---------------------------------------------------------------------------

class InterpreterAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InterpreterAgreement, ProtoaccProgramEqualsNative) {
  const InterfaceRegistry& reg = InterfaceRegistry::Default();
  const ProgramInterface iface = reg.LoadProgram("protoacc");
  MessageShape shape;
  shape.max_depth = 1 + GetParam() % 4;
  const MessageInstance msg = GenerateMessage(shape, GetParam() * 1013);
  const MessageObject obj(&msg);
  const double native = NativeProtoaccThroughput(msg, 60);
  EXPECT_NEAR(iface.Eval("tput_protoacc_ser", obj), native, std::abs(native) * 1e-12);
  EXPECT_NEAR(iface.Eval("max_latency_protoacc_ser", obj),
              NativeProtoaccMaxLatency(msg, 60), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, InterpreterAgreement,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace perfiface
