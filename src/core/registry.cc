#include "src/core/registry.h"

#include "src/common/check.h"

namespace perfiface {

std::string InterfaceRegistry::InterfaceDir() {
  return std::string(PERFIFACE_SOURCE_DIR) + "/src/core/interfaces";
}

const InterfaceRegistry& InterfaceRegistry::Default() {
  static const InterfaceRegistry* kRegistry = [] {
    auto* r = new InterfaceRegistry();
    const std::string dir = InterfaceDir();
    const auto& texts = Fig1TextInterfaces();

    InterfaceBundle jpeg;
    jpeg.accelerator = "jpeg_decoder";
    jpeg.text = texts[0];
    jpeg.program_path = dir + "/jpeg_fig2.psc";
    jpeg.pnet_path = dir + "/jpeg.pnet";
    r->bundles_.push_back(jpeg);

    InterfaceBundle miner;
    miner.accelerator = "bitcoin_miner";
    miner.text = texts[1];
    r->bundles_.push_back(miner);

    InterfaceBundle protoacc;
    protoacc.accelerator = "protoacc";
    protoacc.text = texts[2];
    protoacc.program_path = dir + "/protoacc_fig3.psc";
    protoacc.pnet_path = dir + "/protoacc.pnet";
    protoacc.constants = {{"avg_mem_latency", 60.0}};
    r->bundles_.push_back(protoacc);

    InterfaceBundle deser;
    deser.accelerator = "protoacc_deser";
    deser.program_path = dir + "/protoacc_deser.psc";
    deser.constants = {{"avg_mem_latency", 60.0}};
    r->bundles_.push_back(deser);

    InterfaceBundle compress;
    compress.accelerator = "compressor";
    compress.text = TextInterface{
        "compressor",
        "Throughput is one input byte per cycle for compressible data, dropping toward one "
        "byte per two cycles as the data becomes incompressible (the token writer takes "
        "over as the bottleneck).",
        {}};
    compress.program_path = dir + "/compress.psc";
    r->bundles_.push_back(compress);

    InterfaceBundle vta;
    vta.accelerator = "vta";
    vta.pnet_path = dir + "/vta.pnet";
    r->bundles_.push_back(vta);

    InterfaceBundle conv;
    conv.accelerator = "conv";
    conv.text = TextInterface{
        "conv",
        "Latency tracks the slowest pipeline stage per output tile: the inbound DMA "
        "(input patch plus the weight tile amortized over its reuse), the 4-wide MAC "
        "array at one group per cycle, or the outbound DMA. Tiling decides which; "
        "small tiles pay the patch halo again and again, large tiles lose the "
        "double-buffer overlap.",
        {}};
    conv.program_path = dir + "/conv_fig2.psc";
    conv.pnet_path = dir + "/conv.pnet";
    conv.constants = {{"burst_lat", 52.0}, {"mac_base", 6.0}, {"finish_cost", 4.0}};
    r->bundles_.push_back(conv);

    return r;
  }();
  return *kRegistry;
}

bool InterfaceRegistry::Has(const std::string& accelerator) const {
  for (const InterfaceBundle& b : bundles_) {
    if (b.accelerator == accelerator) {
      return true;
    }
  }
  return false;
}

const InterfaceBundle& InterfaceRegistry::Get(const std::string& accelerator) const {
  for (const InterfaceBundle& b : bundles_) {
    if (b.accelerator == accelerator) {
      return b;
    }
  }
  PI_CHECK_MSG(false, accelerator.c_str());
  return bundles_.front();
}

InterfaceRegistry InterfaceRegistry::WithConstant(const std::string& accelerator,
                                                 const std::string& name, double value) const {
  InterfaceRegistry copy = *this;
  for (InterfaceBundle& b : copy.bundles_) {
    if (b.accelerator != accelerator) {
      continue;
    }
    for (auto& c : b.constants) {
      if (c.first == name) {
        c.second = value;
        return copy;
      }
    }
    b.constants.emplace_back(name, value);
    return copy;
  }
  PI_CHECK_MSG(false, accelerator.c_str());
  return copy;
}

ProgramInterface InterfaceRegistry::LoadProgram(const std::string& accelerator) const {
  const InterfaceBundle& b = Get(accelerator);
  PI_CHECK_MSG(!b.program_path.empty(), "no executable interface shipped");
  ProgramInterface iface = ProgramInterface::FromFile(b.program_path);
  for (const auto& c : b.constants) {
    iface.SetConstant(c.first, c.second);
  }
  // Lower to bytecode once per load, after all calibration constants are in
  // place (they get folded into the compiled form).
  iface.Compile();
  return iface;
}

}  // namespace perfiface
