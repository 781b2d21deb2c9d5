#include "src/core/petri_interfaces.h"

#include "src/accel/jpeg/decoder_sim.h"
#include "src/accel/protoacc/wire.h"
#include "src/common/check.h"
#include "src/petri/sim.h"

namespace perfiface {
namespace {

constexpr Cycles kRunBudget = 1ULL << 40;

}  // namespace

JpegPetriInterface::JpegPetriInterface(const std::string& pnet_path,
                                       std::size_t blocks_per_stripe)
    : blocks_per_stripe_(blocks_per_stripe) {
  loaded_ = LoadPnetFile(pnet_path);
  PI_CHECK_MSG(loaded_.ok(), loaded_.error.c_str());
  hdr_in_ = loaded_.net->PlaceByName("hdr_in");
  vld_in_ = loaded_.net->PlaceByName("vld_in");
  done_ = loaded_.net->PlaceByName("done");
  attr_bits_ = loaded_.net->FindAttr("bits");
  attr_blocks_ = loaded_.net->FindAttr("blocks");
  PI_CHECK(attr_bits_ != PetriNet::kNoAttr && attr_blocks_ != PetriNet::kNoAttr);
}

PetriPrediction JpegPetriInterface::Predict(const CompressedImage& image,
                                            std::size_t copies) const {
  PI_CHECK(copies >= 2);
  const std::vector<StripeInfo> stripes = SplitIntoStripes(image, blocks_per_stripe_);
  const std::size_t nattrs = loaded_.net->attr_names().size();

  auto make_token = [&](const StripeInfo& s) {
    Token t;
    t.attrs.assign(nattrs, 0.0);
    t.attrs[attr_bits_] = static_cast<double>(s.coded_bits);
    t.attrs[attr_blocks_] = static_cast<double>(s.blocks);
    return t;
  };

  PetriPrediction out;

  // Latency: one image in isolation.
  {
    PetriSim sim(loaded_.net.get());
    sim.Observe(done_);
    sim.Inject(hdr_in_, Token{});
    for (const StripeInfo& s : stripes) {
      sim.Inject(vld_in_, make_token(s));
    }
    PI_CHECK(sim.Run(kRunBudget));
    const auto& arrivals = sim.arrivals(done_);
    PI_CHECK(arrivals.size() == stripes.size());
    out.latency = arrivals.back().time;
    out.firings = sim.total_firings();
  }

  // Throughput: copies back-to-back (header parse exposed only once, as in
  // the simulator's streaming protocol).
  {
    PetriSim sim(loaded_.net.get());
    sim.Observe(done_);
    sim.Inject(hdr_in_, Token{});
    for (std::size_t c = 0; c < copies; ++c) {
      for (const StripeInfo& s : stripes) {
        sim.Inject(vld_in_, make_token(s));
      }
    }
    PI_CHECK(sim.Run(kRunBudget));
    const auto& arrivals = sim.arrivals(done_);
    PI_CHECK(arrivals.size() == stripes.size() * copies);
    const Cycles first = arrivals[stripes.size() - 1].time;
    const Cycles last = arrivals.back().time;
    PI_CHECK(last > first);
    out.throughput = static_cast<double>(copies - 1) / static_cast<double>(last - first);
    out.firings += sim.total_firings();
  }
  return out;
}

Cycles JpegPetriInterface::PredictLatency(const CompressedImage& image) const {
  const std::vector<StripeInfo> stripes = SplitIntoStripes(image, blocks_per_stripe_);
  const std::size_t nattrs = loaded_.net->attr_names().size();
  PetriSim sim(loaded_.net.get());
  sim.Observe(done_);
  sim.Inject(hdr_in_, Token{});
  for (const StripeInfo& s : stripes) {
    Token t;
    t.attrs.assign(nattrs, 0.0);
    t.attrs[attr_bits_] = static_cast<double>(s.coded_bits);
    t.attrs[attr_blocks_] = static_cast<double>(s.blocks);
    sim.Inject(vld_in_, std::move(t));
  }
  PI_CHECK(sim.Run(kRunBudget));
  const auto& arrivals = sim.arrivals(done_);
  PI_CHECK(arrivals.size() == stripes.size());
  return arrivals.back().time;
}

double JpegPetriInterface::PredictThroughput(const CompressedImage& image,
                                             std::size_t copies) const {
  return Predict(image, copies).throughput;
}

ProtoaccPetriInterface::ProtoaccPetriInterface(const std::string& pnet_path,
                                               Cycles output_flush)
    : output_flush_(output_flush) {
  loaded_ = LoadPnetFile(pnet_path);
  PI_CHECK_MSG(loaded_.ok(), loaded_.error.c_str());
  node_q_ = loaded_.net->PlaceByName("node_q");
  msg_q_ = loaded_.net->PlaceByName("msg_q");
  read_done_ = loaded_.net->PlaceByName("read_done");
  write_done_ = loaded_.net->PlaceByName("write_done");
  attr_groups_ = loaded_.net->FindAttr("groups");
  attr_first_ = loaded_.net->FindAttr("first");
  attr_writes_ = loaded_.net->FindAttr("writes");
  PI_CHECK(attr_groups_ != PetriNet::kNoAttr && attr_first_ != PetriNet::kNoAttr &&
           attr_writes_ != PetriNet::kNoAttr);
}

namespace {

void CollectNodes(const MessageInstance& msg, std::vector<std::size_t>* groups) {
  groups->push_back((msg.num_fields() + 31) / 32);
  for (const MessageInstance* sub : msg.SubMessages()) {
    CollectNodes(*sub, groups);
  }
}

}  // namespace

Cycles ProtoaccPetriInterface::PredictLatency(const MessageInstance& msg) const {
  const std::size_t nattrs = loaded_.net->attr_names().size();
  std::vector<std::size_t> groups;
  CollectNodes(msg, &groups);

  PetriSim sim(loaded_.net.get());
  sim.Observe(read_done_);
  sim.Observe(write_done_);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    Token t;
    t.attrs.assign(nattrs, 0.0);
    t.attrs[attr_groups_] = static_cast<double>(groups[i]);
    t.attrs[attr_first_] = i == 0 ? 1.0 : 0.0;
    sim.Inject(node_q_, std::move(t));
  }
  Token m;
  m.attrs.assign(nattrs, 0.0);
  m.attrs[attr_writes_] = static_cast<double>(NumWrites(msg));
  sim.Inject(msg_q_, std::move(m));

  PI_CHECK(sim.Run(kRunBudget));
  const auto& reads = sim.arrivals(read_done_);
  const auto& writes = sim.arrivals(write_done_);
  PI_CHECK(reads.size() == groups.size());
  PI_CHECK(writes.size() == 1);
  // Completion = both engines drained, plus the output flush.
  return std::max(reads.back().time, writes.back().time) + output_flush_;
}

VtaPetriInterface::VtaPetriInterface(const std::string& pnet_path, Cycles finish_cost)
    : finish_cost_(finish_cost) {
  loaded_ = LoadPnetFile(pnet_path);
  PI_CHECK_MSG(loaded_.ok(), loaded_.error.c_str());
  prog_ = loaded_.net->PlaceByName("prog");
  done_ = loaded_.net->PlaceByName("done");
  attr_op_ = loaded_.net->FindAttr("op");
  attr_words_ = loaded_.net->FindAttr("words");
  attr_uops_ = loaded_.net->FindAttr("uops");
  attr_iters_ = loaded_.net->FindAttr("iters");
  attr_push_next_ = loaded_.net->FindAttr("push_next");
  PI_CHECK(attr_op_ != PetriNet::kNoAttr && attr_words_ != PetriNet::kNoAttr &&
           attr_uops_ != PetriNet::kNoAttr && attr_iters_ != PetriNet::kNoAttr &&
           attr_push_next_ != PetriNet::kNoAttr);
}

void VtaPetriInterface::InjectProgram(const VtaProgram& program, std::size_t copies,
                                      PetriSim* sim) const {
  const std::size_t nattrs = loaded_.net->attr_names().size();
  for (std::size_t c = 0; c < copies; ++c) {
    for (const VtaInsn& insn : program) {
      if (insn.op == VtaOp::kFinish) {
        continue;  // FINISH is the +finish_cost constant, not a token
      }
      Token t;
      t.attrs.assign(nattrs, 0.0);
      double op = 0;
      switch (insn.op) {
        case VtaOp::kLoad: op = 1; break;
        case VtaOp::kGemm: op = 2; break;
        case VtaOp::kAlu: op = 3; break;
        case VtaOp::kStore: op = 4; break;
        case VtaOp::kFinish: op = 0; break;
      }
      t.attrs[attr_op_] = op;
      t.attrs[attr_words_] = static_cast<double>(insn.dma_words);
      t.attrs[attr_uops_] = static_cast<double>(insn.uops);
      t.attrs[attr_iters_] = static_cast<double>(insn.iters);
      t.attrs[attr_push_next_] = insn.push_next ? 1.0 : 0.0;
      sim->Inject(prog_, std::move(t));
    }
  }
}

PetriPrediction VtaPetriInterface::Predict(const VtaProgram& program, std::size_t copies) const {
  PI_CHECK(copies >= 3);
  PI_CHECK_MSG(ValidateProgram(program).empty(), "invalid VTA program");
  std::size_t stores_per_copy = 0;
  for (const VtaInsn& insn : program) {
    if (insn.op == VtaOp::kStore) {
      ++stores_per_copy;
    }
  }
  PI_CHECK(stores_per_copy > 0);
  const std::uint64_t insns = program.size() - 1;

  PetriPrediction out;

  // Latency: single execution.
  {
    PetriSim sim(loaded_.net.get());
    sim.Observe(done_);
    InjectProgram(program, 1, &sim);
    PI_CHECK(sim.Run(kRunBudget));
    const auto& arrivals = sim.arrivals(done_);
    PI_CHECK(arrivals.size() == stores_per_copy);
    out.latency = arrivals.back().time + finish_cost_;
    out.firings = sim.total_firings();
  }

  // Throughput: back-to-back copies.
  {
    PetriSim sim(loaded_.net.get());
    sim.Observe(done_);
    InjectProgram(program, copies, &sim);
    PI_CHECK(sim.Run(kRunBudget));
    const auto& arrivals = sim.arrivals(done_);
    PI_CHECK(arrivals.size() == stores_per_copy * copies);
    const Cycles first = arrivals[stores_per_copy - 1].time;
    const Cycles last = arrivals.back().time;
    PI_CHECK(last > first);
    out.throughput = static_cast<double>(insns * (copies - 1)) / static_cast<double>(last - first);
    out.firings += sim.total_firings();
  }
  return out;
}

Cycles VtaPetriInterface::PredictLatency(const VtaProgram& program) const {
  PI_CHECK_MSG(ValidateProgram(program).empty(), "invalid VTA program");
  PetriSim sim(loaded_.net.get());
  sim.Observe(done_);
  InjectProgram(program, 1, &sim);
  PI_CHECK(sim.Run(kRunBudget));
  const auto& arrivals = sim.arrivals(done_);
  PI_CHECK(!arrivals.empty());
  return arrivals.back().time + finish_cost_;
}

double VtaPetriInterface::PredictThroughput(const VtaProgram& program, std::size_t copies) const {
  return Predict(program, copies).throughput;
}

ConvPetriInterface::ConvPetriInterface(const std::string& pnet_path, Cycles finish_cost)
    : finish_cost_(finish_cost) {
  loaded_ = LoadPnetFile(pnet_path);
  PI_CHECK_MSG(loaded_.ok(), loaded_.error.c_str());
  prog_ = loaded_.net->PlaceByName("prog");
  done_ = loaded_.net->PlaceByName("done");
  attr_op_ = loaded_.net->FindAttr("op");
  attr_words_ = loaded_.net->FindAttr("words");
  attr_groups_ = loaded_.net->FindAttr("groups");
  attr_pop_w_ = loaded_.net->FindAttr("pop_w");
  PI_CHECK(attr_op_ != PetriNet::kNoAttr && attr_words_ != PetriNet::kNoAttr &&
           attr_groups_ != PetriNet::kNoAttr && attr_pop_w_ != PetriNet::kNoAttr);
}

void ConvPetriInterface::InjectProgram(const ConvProgram& program, std::size_t copies,
                                       PetriSim* sim) const {
  const std::size_t nattrs = loaded_.net->attr_names().size();
  for (std::size_t c = 0; c < copies; ++c) {
    for (const ConvCmd& cmd : program) {
      if (cmd.op == ConvOp::kFinish) {
        continue;  // FINISH is the +finish_cost constant, not a token
      }
      Token t;
      t.attrs.assign(nattrs, 0.0);
      double op = 0;
      switch (cmd.op) {
        case ConvOp::kWeightLoad: op = 1; break;
        case ConvOp::kInputLoad: op = 2; break;
        case ConvOp::kMac: op = 3; break;
        case ConvOp::kStore: op = 4; break;
        case ConvOp::kFinish: op = 0; break;
      }
      t.attrs[attr_op_] = op;
      t.attrs[attr_words_] = static_cast<double>(cmd.dma_words);
      t.attrs[attr_groups_] = static_cast<double>(cmd.groups);
      t.attrs[attr_pop_w_] = cmd.pop_weights ? 1.0 : 0.0;
      sim->Inject(prog_, std::move(t));
    }
  }
}

PetriPrediction ConvPetriInterface::Predict(const ConvProgram& program,
                                            std::size_t copies) const {
  PI_CHECK(copies >= 3);
  PI_CHECK_MSG(ValidateConvProgram(program).empty(), "invalid conv program");
  std::size_t stores_per_copy = 0;
  for (const ConvCmd& cmd : program) {
    if (cmd.op == ConvOp::kStore) {
      ++stores_per_copy;
    }
  }
  PI_CHECK(stores_per_copy > 0);
  const std::uint64_t cmds = program.size() - 1;

  PetriPrediction out;

  // Latency: single execution.
  {
    PetriSim sim(loaded_.net.get());
    sim.Observe(done_);
    InjectProgram(program, 1, &sim);
    PI_CHECK(sim.Run(kRunBudget));
    const auto& arrivals = sim.arrivals(done_);
    PI_CHECK(arrivals.size() == stores_per_copy);
    out.latency = arrivals.back().time + finish_cost_;
    out.firings = sim.total_firings();
  }

  // Throughput: back-to-back copies.
  {
    PetriSim sim(loaded_.net.get());
    sim.Observe(done_);
    InjectProgram(program, copies, &sim);
    PI_CHECK(sim.Run(kRunBudget));
    const auto& arrivals = sim.arrivals(done_);
    PI_CHECK(arrivals.size() == stores_per_copy * copies);
    const Cycles first = arrivals[stores_per_copy - 1].time;
    const Cycles last = arrivals.back().time;
    PI_CHECK(last > first);
    out.throughput = static_cast<double>(cmds * (copies - 1)) / static_cast<double>(last - first);
    out.firings += sim.total_firings();
  }
  return out;
}

Cycles ConvPetriInterface::PredictLatency(const ConvProgram& program) const {
  PI_CHECK_MSG(ValidateConvProgram(program).empty(), "invalid conv program");
  PetriSim sim(loaded_.net.get());
  sim.Observe(done_);
  InjectProgram(program, 1, &sim);
  PI_CHECK(sim.Run(kRunBudget));
  const auto& arrivals = sim.arrivals(done_);
  PI_CHECK(!arrivals.empty());
  return arrivals.back().time + finish_cost_;
}

double ConvPetriInterface::PredictThroughput(const ConvProgram& program,
                                             std::size_t copies) const {
  return Predict(program, copies).throughput;
}

}  // namespace perfiface
