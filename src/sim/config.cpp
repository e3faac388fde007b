#include "sim/config.hpp"

namespace capstan::sim {

double
memTechBandwidth(MemTech tech)
{
    switch (tech) {
      case MemTech::DDR4:
        return 68.0;
      case MemTech::HBM2:
        return 900.0;
      case MemTech::HBM2E:
        return 1800.0;
      case MemTech::Ideal:
      default:
        return 1e9;
    }
}

std::string
memTechName(MemTech tech)
{
    switch (tech) {
      case MemTech::DDR4:
        return "DDR4";
      case MemTech::HBM2:
        return "HBM2";
      case MemTech::HBM2E:
        return "HBM2E";
      case MemTech::Ideal:
      default:
        return "Ideal";
    }
}

std::string
orderingName(Ordering mode)
{
    switch (mode) {
      case Ordering::Unordered:
        return "Unordered";
      case Ordering::AddressOrdered:
        return "Address Ordered";
      case Ordering::FullyOrdered:
        return "Fully Ordered";
      case Ordering::Arbitrated:
      default:
        return "Arbitrated";
    }
}

std::string
bankHashName(BankHash hash)
{
    switch (hash) {
      case BankHash::Linear:
        return "Linear";
      case BankHash::Xor:
      default:
        return "Xor";
    }
}

std::string
allocatorKindName(AllocatorKind kind)
{
    switch (kind) {
      case AllocatorKind::Full:
        return "Full";
      case AllocatorKind::Weak:
      default:
        return "Weak";
    }
}

std::string
mergeModeName(MergeMode mode)
{
    switch (mode) {
      case MergeMode::None:
        return "None";
      case MergeMode::Mrg0:
        return "Mrg-0";
      case MergeMode::Mrg1:
        return "Mrg-1";
      case MergeMode::Mrg16:
      default:
        return "Mrg-16";
    }
}

CapstanConfig
CapstanConfig::capstan(MemTech tech)
{
    CapstanConfig cfg;
    cfg.dram.tech = tech;
    return cfg;
}

CapstanConfig
CapstanConfig::plasticine(MemTech tech)
{
    CapstanConfig cfg = capstan(tech);
    cfg.spmu.sparse_support = false;
    cfg.spmu.ordering = Ordering::Arbitrated;
    cfg.spmu.allocator = AllocatorKind::Weak;
    cfg.merge = MergeMode::None;
    // Plasticine has no sparse loop headers: sparse iteration degrades to
    // one control-flow decision per cycle.
    cfg.scanner.window_bits = 1;
    cfg.scanner.outputs = 1;
    cfg.scanner.data_elements = 1;
    return cfg;
}

CapstanConfig
CapstanConfig::ideal()
{
    CapstanConfig cfg = capstan(MemTech::Ideal);
    cfg.spmu.ideal = true;
    cfg.network_hop_latency = 0;
    return cfg;
}

} // namespace capstan::sim
